// Command perfbench is the repository's end-to-end serving benchmark. It
// trains the paper's three networks, quantises and encodes them, then
// runs one named workload in process against the serving stack at
// positrond's shipped defaults and checks every reply bit for bit
// against MAC-bank reference logits.
//
// Run it from the root of the repository checkout:
//
//	bash perfbench/run.sh --workload burst --seed 7 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the schedule untraced and then traced (half the seconds each)
// and reports the per-layer ledger and the tracing overhead. The last
// line of standard output is one JSON object: correct, attempted,
// failed and the metrics.
//
// Every run also writes its full record (host stamp, per-phase counts,
// every metric with its sample count) to
// .bench_build/results/<workload>-seed<n>-trace<t>.json, and a traced
// run writes its spans to .bench_build/results/<workload>.spans.tsv.
// Records from different hosts are refused by
//
//	.bench_build/perfbench compare BASE.json NEW.json
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// warmUp is how much of the schedule runs untimed before measuring, so
// lazily built tables (the other Iris version's), goroutine stacks and
// connection pools are in place.
const warmUp = time.Second

// resultsDir holds the records and span dumps, inside the checkout.
const resultsDir = ".bench_build/results"

// setupRuns is how many times a run builds the stack from empty
// registries, half before the measured phase and half after it, each
// setupGap after the last; setup_s is their median.
const (
	setupRuns = 21
	setupGap  = 50 * time.Millisecond
)

// procs is the parallelism of every run: GOMAXPROCS, and with it the
// engine's workers and the callers, is held at procs (or NumCPU when
// smaller), so a host with more cores runs the same stack as a two-core
// one and idle cores a neighbour frees do not move the results.
const procs = 2

// Validity bounds: a phase whose generator ran later than
// this at p99, or whose requests waited this long for a connection at
// p99, measured the generator rather than the system.
const (
	lagBoundMs      = 25
	connWaitBoundMs = 25
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: trickle, burst, batch-http or offline-batch")
	seed := fs.Uint64("seed", 1, "workload seed: selects rows, arrival times, batches and swap times")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*wname)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadList())
		return 2
	}
	rec, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if rec != nil {
		path := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
		if werr := writeRecord(path, rec); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rec.Valid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid, not scored:", rec.Invalid)
		return 3
	}
	line, err := json.Marshal(rec.contract(*trace == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadList() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// phaseCounts is one phase's request accounting.
type phaseCounts struct {
	Name      string  `json:"name"`
	Sent      int64   `json:"sent"`
	Succeeded int64   `json:"succeeded"`
	Failed    int64   `json:"failed"`
	Refused   int64   `json:"refused"`
	TimedOut  int64   `json:"timed_out"`
	Errors    int64   `json:"errors"`
	Status    int64   `json:"status_4xx_5xx"`
	Mismatch  int64   `json:"mismatched"`
	Swaps     int64   `json:"swaps"`
	SwapsOK   int64   `json:"swaps_ok"`
	StealPct  float64 `json:"steal_pct"`
}

func countsOf(name string, p *phaseStats) phaseCounts {
	var k [numKinds]int64
	for i := range k {
		k[i] = p.kinds[i] + p.swapKinds[i]
	}
	var swaps int64
	for _, n := range p.swapKinds {
		swaps += n
	}
	return phaseCounts{
		Name: name, Sent: p.attempted(), Succeeded: k[kindOK], Failed: p.failed(),
		Refused: k[kindRefused], TimedOut: k[kindTimeout], Errors: k[kindError],
		Status: k[kindStatus], Mismatch: k[kindMismatch], Swaps: swaps, SwapsOK: p.swapKinds[kindOK],
		StealPct: p.stealPct,
	}
}

// record is everything one run measured.
type record struct {
	Host      host          `json:"host"`
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Traced    bool          `json:"traced"`
	Schedule  string        `json:"schedule_sha256"`
	Phases    []phaseCounts `json:"phases"`
	Correct   bool          `json:"correct"`
	Valid     bool          `json:"valid"`
	Invalid   string        `json:"invalid,omitempty"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Metrics   []metric      `json:"metrics"`
}

// contractMetric is one metric of the final output line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the final output line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contract renders the final line: the end-to-end metrics, or with
// tracing the per-layer ones.
func (r *record) contract(traced bool) contractLine {
	names := endToEnd
	if traced {
		names = perLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(names))}
	for _, n := range names {
		for _, m := range r.Metrics {
			if m.Name == n.name {
				line.Metrics[n.name] = contractMetric{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	return line
}

// measure runs one workload end to end and prints the human-readable
// report.
func measure(w *workload, seed uint64, total time.Duration, traced bool, stdout io.Writer) (*record, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), procs))
	rec := &record{Host: hostStamp(), Workload: w.name, Seed: seed, Seconds: total.Seconds(), Traced: traced, Valid: true}
	trained, err := trainedByName()
	if err != nil {
		return nil, err
	}
	var lens testLens
	for i, tr := range trained {
		lens[i] = tr.Test.Len()
	}
	d := total
	if traced {
		d = total / 2
	}
	sched := newSchedule(w, seed, d, lens)
	digest := sched.digest()
	rec.Schedule = hex.EncodeToString(digest[:])

	refs := w.allRefs()
	if traced {
		for _, a := range ledgerArms {
			refs = append(refs, modelRef{dsWBC, a})
		}
	}
	models, err := prepare(refs, sched.pools)
	if err != nil {
		return nil, err
	}
	for _, p := range models {
		if !selfTest(p) {
			return nil, errors.New("checker self-test: a corrupted reply was not counted")
		}
	}

	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := newRunner(w, models, sched, dir, tr)
	if err != nil {
		return nil, err
	}
	var setups []float64
	// setUp builds the stack from empty k times, setupGap apart, and
	// keeps the last one running when keep is set. A failed set-up is
	// left in r.sys for the deferred close.
	setUp := func(k int, keep bool) error {
		for i := 0; i < k; i++ {
			time.Sleep(setupGap)
			d, err := r.setup()
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
			if !keep || i < k-1 {
				r.sys.close()
				r.sys = nil
			}
		}
		return nil
	}
	defer func() {
		if r.sys != nil {
			r.sys.close()
		}
	}()
	if err := setUp(setupRuns-setupRuns/2, true); err != nil {
		return nil, err
	}

	r.runPhase(min(warmUp, d))
	var m metricSet
	a := r.runPhase(d)
	rec.Phases = append(rec.Phases, countsOf("measure", a))
	phases := []*phaseStats{a}
	if traced {
		b, err := r.tracedPhase(d, &m, a, filepath.Join(resultsDir, w.name+".spans.tsv"))
		if err != nil {
			return nil, err
		}
		rec.Phases = append(rec.Phases, countsOf("traced", b))
		phases = append(phases, b)
	}

	for _, p := range phases {
		rec.Attempted += p.attempted()
		rec.Failed += p.failed()
		if lag := percentile(p.lags, 99); lag > lagBoundMs {
			rec.Valid = false
			rec.Invalid = fmt.Sprintf("generator lag p99 %.2f ms > %d ms", lag, lagBoundMs)
		}
		if cw := percentile(p.connWaits, 99); cw > connWaitBoundMs {
			rec.Valid = false
			rec.Invalid = fmt.Sprintf("connection wait p99 %.2f ms > %d ms", cw, connWaitBoundMs)
		}
	}
	rec.Correct = r.chk.mismatches.Load() == 0

	e2e := metricSet{}
	e2e.add("lat_p50_ms", percentile(a.lat, 50), "ms", int64(len(a.lat)))
	e2e.add("samples_per_s", float64(a.samples)/a.wall.Seconds(), "1/s", a.samples)
	e2e.add("swap_p10_ms", percentile(a.swapMs, 10), "ms", int64(len(a.swapMs)))
	// Printed with the rest but not scored. On a shared virtual machine
	// the CPU time a request costs follows the neighbours' load, not the
	// program: burst read 21.8 and 11.9 µs per request in two 10-seed
	// sets half an hour apart, with the steal share under 9% in both.
	// The latency above the median and the median swap (whose probe
	// waits for CPU behind a saturating closed loop) follow the steal
	// share the phase records. The error rate is zero when the run is
	// healthy (failures are scored through "failed" instead).
	e2e.add("cpu_us_per_req", float64(a.cpu.Microseconds())/float64(max(a.requests(), 1)), "us", a.requests())
	e2e.add("lat_p75_ms", percentile(a.lat, 75), "ms", int64(len(a.lat)))
	e2e.add("lat_p90_ms", percentile(a.lat, 90), "ms", int64(len(a.lat)))
	e2e.add("lat_p99_ms", percentile(a.lat, 99), "ms", int64(len(a.lat)))
	e2e.add("swap_p50_ms", median(a.swapMs), "ms", int64(len(a.swapMs)))
	e2e.add("error_rate", ratio(rec.Failed, rec.Attempted), "ratio", rec.Attempted)

	// The live heap is read with the benchmark's own per-request samples
	// dropped, so it holds the serving stack and the fixed inputs only.
	for _, p := range phases {
		p.drop()
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e2e.add("heap_mb", float64(mem.HeapAlloc)/1e6, "MB", 1)

	// The rest of the set-ups come after the measured phase, so their
	// median spans the whole run rather than one moment of it.
	r.sys.close()
	r.sys = nil
	if err := setUp(setupRuns/2, false); err != nil {
		return nil, err
	}
	e2e.add("setup_s", median(setups), "s", int64(len(setups)))
	if traced {
		m.add("loadgen.error_rate", ratio(rec.Failed, rec.Attempted), "ratio", rec.Attempted)
	}
	rec.Metrics = append(e2e.list, m.list...)
	if traced {
		for _, n := range perLayer {
			if _, ok := m.get(n.name); !ok {
				return rec, fmt.Errorf("per-layer metric %s was not measured", n.name)
			}
		}
	}
	report(stdout, w, rec)
	return rec, nil
}

// report prints the run as text.
func report(out io.Writer, w *workload, rec *record) {
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g traced=%t schedule=sha256:%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Schedule[:16])
	h := rec.Host
	fmt.Fprintf(out, "host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s %s/%s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch)
	for _, p := range rec.Phases {
		fmt.Fprintf(out, "phase %s: sent=%d succeeded=%d failed=%d refused=%d timed_out=%d errors=%d status=%d mismatched=%d swaps=%d/%d steal=%.1f%%\n",
			p.Name, p.Sent, p.Succeeded, p.Failed, p.Refused, p.TimedOut, p.Errors, p.Status, p.Mismatch, p.SwapsOK, p.Swaps, p.StealPct)
	}
	fmt.Fprintf(out, "%-40s %14s  %-7s %s\n", "metric", "value", "unit", "n")
	for _, m := range rec.Metrics {
		fmt.Fprintf(out, "%-40s %14.6g  %-7s %d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if rec.Traced {
		fmt.Fprintf(out, "why: %s\n", w.why)
		for _, p := range w.predictions {
			fmt.Fprintf(out, "predicted: %s\n", p)
		}
	}
	if !rec.Valid {
		fmt.Fprintf(out, "INVALID: %s\n", rec.Invalid)
	}
}

// writeRecord writes the full record as JSON.
func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
