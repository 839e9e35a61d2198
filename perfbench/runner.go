package main

// The load generator: set-up, the open- and closed-loop phases, and the
// hot-swap schedule that runs beside them. One process makes all the
// load, with at most maxCallers HTTP connections or closed-loop callers.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/registry"
)

// maxInFlight caps open-loop requests in flight; an arrival beyond it is
// refused by the generator and counts as failed.
const maxInFlight = 4096

// Outcome kinds of one request.
const (
	kindOK uint8 = iota
	kindError
	kindStatus
	kindRefused
	kindTimeout
	kindMismatch
	numKinds
)

// classify maps a request error onto its outcome kind.
func classify(err error) uint8 {
	var se statusError
	var ne net.Error
	switch {
	case err == nil:
		return kindOK
	case errors.Is(err, errMismatch):
		return kindMismatch
	case errors.As(err, &se):
		return kindStatus
	case errors.Is(err, registry.ErrOverloaded):
		return kindRefused
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, registry.ErrRequestTimeout),
		errors.As(err, &ne) && ne.Timeout():
		return kindTimeout
	}
	return kindError
}

// version is one loaded Iris artifact in the hot-swap rotation.
type version struct {
	name     string
	p        *prepared
	inflight sync.WaitGroup // requests sent to this name
}

// swapState holds the version traffic goes to. Requests join a
// version's WaitGroup under the read lock, so once set returns no new
// request can reach the old name and waiting on it drains the rest.
type swapState struct {
	mu  sync.RWMutex
	cur *version
}

func (s *swapState) acquire() *version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.cur.inflight.Add(1)
	return s.cur
}

func (s *swapState) set(v *version) *version {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur
	s.cur = v
	return old
}

// closedCall is one pre-built closed-loop batch.
type closedCall struct {
	model int
	rows  []uint16
	xs    [][]float64
	body  []byte
}

// runner drives one workload against one system.
type runner struct {
	w       *workload
	tr      *tracer
	models  map[string]*prepared
	traffic []*prepared // per traffic index
	names   []string    // serving name per traffic index
	files   []artifactFile
	callers int
	sched   *schedule
	bodies  [][][]byte // open loop over HTTP: [traffic][row] single-sample bodies
	batches [maxCallers][]closedCall

	sys     *system
	ctx     context.Context // the running phase's; its deadline times out stuck requests
	swap    swapState
	swapSeq int
	nextID  atomic.Uint64
	chk     checker
	stats   *phaseStats // the running phase, which swaps report to
	ledger  *regLedger  // non-nil while a traced phase runs
}

// newRunner prepares everything a workload needs before the clock.
func newRunner(w *workload, models map[string]*prepared, sched *schedule, dir string, tr *tracer) (*runner, error) {
	r := &runner{w: w, tr: tr, models: models, sched: sched, callers: min(maxCallers, runtime.GOMAXPROCS(0))}
	for i, ref := range w.traffic {
		p := models[ref.key()]
		r.traffic = append(r.traffic, p)
		name := ref.key()
		if i == 0 && w.swapTraffic {
			name = swapName(0)
		}
		if err := r.writeArtifact(dir, name, p); err != nil {
			return nil, err
		}
		r.names = append(r.names, name)
		if w.http && w.rate > 0 {
			bs := make([][]byte, len(p.rows))
			for row, x := range p.rows {
				bs[row] = encodeBody([][]float64{x}, true)
			}
			r.bodies = append(r.bodies, bs)
		}
	}
	if !w.swapTraffic {
		if err := r.writeArtifact(dir, swapName(0), models[swapVersions[0].key()]); err != nil {
			return nil, err
		}
	}
	for c, list := range sched.batches {
		for _, b := range list {
			p := r.traffic[b.model]
			xs := make([][]float64, len(b.rows))
			for i, row := range b.rows {
				xs[i] = p.rows[row]
			}
			cc := closedCall{model: int(b.model), rows: b.rows, xs: xs}
			if w.http {
				cc.body = encodeBody(xs, false)
			}
			r.batches[c] = append(r.batches[c], cc)
		}
	}
	return r, nil
}

// writeArtifact writes one artifact file for LoadPath.
func (r *runner) writeArtifact(dir, name string, p *prepared) error {
	path := filepath.Join(dir, name+".bin")
	if err := os.WriteFile(path, p.bytes, 0o644); err != nil {
		return err
	}
	r.files = append(r.files, artifactFile{name: name, path: path, p: p})
	return nil
}

// setup builds a fresh system from empty registries and returns the
// time until every model has answered correctly through the entry point.
func (r *runner) setup() (time.Duration, error) {
	runtime.GC() // start each set-up from a collected heap
	start := time.Now()
	sys, err := startSystem(r.w.http, r.tr, r.files, r.callers)
	if err != nil {
		return 0, err
	}
	r.sys = sys
	iris := r.models[swapVersions[0].key()]
	r.swap.set(&version{name: swapName(0), p: iris})
	r.swapSeq = 0

	errs := make(chan error, len(r.files))
	for _, f := range r.files {
		go func() { errs <- r.probeOnce(f.name, f.p) }()
	}
	for range r.files {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return time.Since(start), err
}

// probeOnce sends p's first pool row to name through the workload's
// entry point and checks the reply.
func (r *runner) probeOnce(name string, p *prepared) error {
	c := r.probeCall(name, p)
	if r.w.http {
		c.body = encodeBody(c.xs, c.single)
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	rep, err := r.sys.do(ctx, c)
	if err == nil && !r.chk.checkReply(p, 0, rep) {
		err = errMismatch
	}
	if err != nil {
		return fmt.Errorf("first reply from %s: %w", name, err)
	}
	return nil
}

// probeRegistries sends p's first pool row to name on every registry in
// process and checks each reply: a swapped-in version is ready once
// every replica serves it correctly.
func (r *runner) probeRegistries(name string, p *prepared) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for _, reg := range r.sys.regs {
		rep, err := r.sys.doLocal(ctx, reg, r.probeCall(name, p))
		if err == nil && !r.chk.checkReply(p, 0, rep) {
			err = errMismatch
		}
		if err != nil {
			return fmt.Errorf("first reply from %s: %w", name, err)
		}
	}
	return nil
}

// probeCall is a one-sample call of p's first pool row, single-sample
// for open-loop workloads and a batch of one for closed-loop ones.
func (r *runner) probeCall(name string, p *prepared) call {
	return call{id: r.nextID.Add(1), name: name, xs: p.one[0], single: r.w.rate > 0}
}

// phaseStats collects one phase's measurements.
type phaseStats struct {
	kinds     [numKinds]int64
	lat       []float64 // ms per request; failures count at requestTimeout
	lags      []float64 // ms the generator sent each request late
	connWaits []float64 // ms, HTTP
	samples   int64     // correct samples
	swapMs    []float64
	swapKinds [numKinds]int64
	wall      time.Duration
	stealPct  float64 // % of the machine's CPU time the hypervisor gave to other guests
	cpu       time.Duration
	mallocs   uint64
	allocB    uint64
	gcPauseNs uint64
}

func (p *phaseStats) attempted() int64 {
	var n int64
	for _, k := range p.kinds {
		n += k
	}
	for _, k := range p.swapKinds {
		n += k
	}
	return n
}

func (p *phaseStats) failed() int64 {
	return p.attempted() - p.kinds[kindOK] - p.swapKinds[kindOK]
}

func (p *phaseStats) requests() int64 { return p.kinds[kindOK] }

// stealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat; both are 0 where it is missing. Steal is time a virtual
// CPU was runnable but the hypervisor ran something else: latency pays
// for it, process CPU time does not.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// drop releases the per-request samples once the metrics are taken.
func (p *phaseStats) drop() {
	p.lat, p.lags, p.connWaits, p.swapMs = nil, nil, nil, nil
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase runs the schedule for d, with hot swaps alongside: every
// arrival and swap due before d in the open loop, or the callers' batch
// lists until d in the closed loop.
func (r *runner) runPhase(d time.Duration) *phaseStats {
	ps := &phaseStats{}
	r.stats = ps
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	steal0, total0 := stealTicks()
	start := time.Now().Add(time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(d+requestTimeout))
	defer cancel()
	r.ctx = ctx

	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		r.swapLoop(start, d, stop)
	}()
	if r.w.rate > 0 {
		r.runOpen(ps, start, d)
	} else {
		r.runClosed(ps, start, d)
	}
	close(stop)
	<-swapped

	ps.wall = time.Since(start)
	steal1, total1 := stealTicks()
	ps.stealPct = 100 * ratio(steal1-steal0, total1-total0)
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.allocB = m1.TotalAlloc - m0.TotalAlloc
	ps.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return ps
}

// runOpen dispatches every arrival at its due time, waking once per
// batch of due arrivals, and waits for all replies.
func (r *runner) runOpen(ps *phaseStats, start time.Time, d time.Duration) {
	reqs := r.sched.open
	n := sort.Search(len(reqs), func(i int) bool { return reqs[i].at >= d })
	ps.lat = make([]float64, n)
	ps.lags = make([]float64, n)
	kinds := make([]uint8, n)
	var waits []float64
	if r.w.http {
		waits = make([]float64, n)
	}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n && !start.Add(reqs[i].at).After(now); i++ {
			due := start.Add(reqs[i].at)
			ps.lags[i] = ms(now.Sub(due))
			if inflight.Load() >= maxInFlight {
				kinds[i] = kindRefused
				ps.lat[i] = ms(requestTimeout)
				continue
			}
			inflight.Add(1)
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				defer inflight.Add(-1)
				var wait time.Duration
				kinds[i], wait = r.fireOne(reqs[i], due)
				ps.lat[i] = ms(time.Since(due))
				if kinds[i] != kindOK {
					ps.lat[i] = ms(requestTimeout)
				}
				if waits != nil {
					waits[i] = ms(wait)
				}
			}(i, due)
		}
		if i < n {
			time.Sleep(time.Until(start.Add(reqs[i].at)))
		}
	}
	wg.Wait()
	for _, k := range kinds {
		ps.kinds[k]++
	}
	ps.samples = ps.kinds[kindOK]
	ps.connWaits = waits
}

// fireOne sends one open-loop request and checks its reply.
func (r *runner) fireOne(q request, due time.Time) (uint8, time.Duration) {
	m := int(q.model)
	p, name := r.traffic[m], r.names[m]
	if m == 0 && r.w.swapTraffic {
		v := r.swap.acquire()
		defer v.inflight.Done()
		p, name = v.p, v.name
	}
	c := call{id: r.nextID.Add(1), name: name, xs: p.one[q.row], single: true}
	if r.bodies != nil {
		c.body = r.bodies[m][q.row]
	}
	sent := time.Now()
	rep, err := r.sys.do(r.ctx, c)
	if err == nil && !r.chk.checkReply(p, q.row, rep) {
		err = errMismatch
	}
	r.tr.record(c.id, lClient, sent, time.Now())
	return classify(err), rep.connWait
}

// runClosed runs the callers until the phase deadline; each sends its
// next batch only after the previous reply has been checked.
func (r *runner) runClosed(ps *phaseStats, start time.Time, d time.Duration) {
	deadline := start.Add(d)
	time.Sleep(time.Until(start))
	per := make([]*phaseStats, r.callers)
	var wg sync.WaitGroup
	for c := range per {
		per[c] = &phaseStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.callLoop(per[c], r.batches[c], deadline)
		}(c)
	}
	wg.Wait()
	for _, q := range per {
		for k, n := range q.kinds {
			ps.kinds[k] += n
		}
		ps.lat = append(ps.lat, q.lat...)
		ps.lags = append(ps.lags, q.lags...)
		ps.connWaits = append(ps.connWaits, q.connWaits...)
		ps.samples += q.samples
	}
}

// callLoop is one closed-loop caller. Its lag is the time from one
// checked reply to the next send.
func (r *runner) callLoop(ps *phaseStats, list []closedCall, deadline time.Time) {
	due := time.Now()
	for k := 0; due.Before(deadline); k++ {
		b := list[k%len(list)]
		p := r.traffic[b.model]
		c := call{id: r.nextID.Add(1), name: r.names[b.model], xs: b.xs, body: b.body}
		sent := time.Now()
		ps.lags = append(ps.lags, ms(sent.Sub(due)))
		rep, err := r.sys.do(r.ctx, c)
		if err == nil && !r.chk.checkBatch(p, b.rows, rep) {
			err = errMismatch
		}
		end := time.Now()
		r.tr.record(c.id, lClient, sent, end)
		kind := classify(err)
		ps.kinds[kind]++
		if kind == kindOK {
			ps.lat = append(ps.lat, ms(end.Sub(sent)))
			ps.samples += int64(len(b.rows))
		} else {
			ps.lat = append(ps.lat, ms(requestTimeout))
		}
		if r.w.http {
			ps.connWaits = append(ps.connWaits, ms(rep.connWait))
		}
		due = time.Now()
	}
}

// swapLoop hot-swaps Iris at the scheduled times until stop closes.
func (r *runner) swapLoop(start time.Time, d time.Duration, stop <-chan struct{}) {
	for _, at := range r.sched.swaps {
		if at >= d {
			return
		}
		t := time.NewTimer(time.Until(start.Add(at)))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		kind, d := r.swapOnce()
		r.stats.swapKinds[kind]++
		if kind == kindOK {
			r.stats.swapMs = append(r.stats.swapMs, ms(d))
		}
	}
}

// swapOnce loads the other Iris version under a new name on every
// registry, waits for its first correct reply from each (the swap time),
// moves traffic to it, drains and unloads the old name and sweeps the
// store. The readiness probe is in process so that, over HTTP, it does
// not queue behind the load's two connections.
func (r *runner) swapOnce() (uint8, time.Duration) {
	r.swapSeq++
	p := r.models[swapVersions[r.swapSeq%2].key()]
	name := swapName(r.swapSeq)
	start := time.Now()
	if err := r.sys.load(name, p.bytes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: swap:", err)
		return kindError, 0
	}
	if err := r.probeRegistries(name, p); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: swap:", err)
		if uerr := r.sys.unload(name); uerr != nil { // traffic stays on the old name
			fmt.Fprintln(os.Stderr, "perfbench: swap:", uerr)
		}
		return classify(err), 0
	}
	d := time.Since(start)
	old := r.swap.set(&version{name: name, p: p})
	old.inflight.Wait()
	if r.ledger != nil {
		r.ledger.final(r.sys, old.name)
	}
	if err := r.sys.unload(old.name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: swap:", err)
		return kindError, 0
	}
	return kindOK, d
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
