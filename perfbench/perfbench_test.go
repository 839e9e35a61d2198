package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// testLensFixed are the paper's test-split sizes (Iris, WBC, Mushroom).
var testLensFixed = testLens{50, 190, 2708}

func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := newSchedule(w, 7, 3*time.Second, testLensFixed).digest()
		b := newSchedule(w, 7, 3*time.Second, testLensFixed).digest()
		c := newSchedule(w, 8, 3*time.Second, testLensFixed).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave two different schedules", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	d := 4 * time.Second
	for _, w := range workloads {
		s := newSchedule(w, 1, d, testLensFixed)
		if len(s.swaps) < 3 {
			t.Errorf("%s: %d swaps in %s", w.name, len(s.swaps), d)
		}
		if w.rate > 0 {
			want := w.rate * d.Seconds()
			if n := float64(len(s.open)); n < 0.9*want || n > 1.1*want {
				t.Errorf("%s: %v arrivals, want about %v", w.name, n, want)
			}
			for i := 1; i < len(s.open); i++ {
				if s.open[i].at < s.open[i-1].at {
					t.Fatalf("%s: arrivals out of order at %d", w.name, i)
				}
			}
			continue
		}
		for c, list := range s.batches {
			samples := map[int]int{}
			for _, b := range list {
				samples[len(b.rows)] += len(b.rows)
			}
			for size, n := range samples {
				if n != samples[w.batchSizes[0]] {
					t.Errorf("%s caller %d: size %d carries %d samples, size %d carries %d",
						w.name, c, size, n, w.batchSizes[0], samples[w.batchSizes[0]])
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// Request 1: client 0–100 ⊃ router 10–90 ⊃ two overlapping attempts
	// (20–50, 40–70) ⊃ server spans 25–45 and 45–65. Request 2 shares
	// no spans with request 1 even though its times overlap.
	spans := []span{
		{id: 1, layer: lClient, start: 0, end: 100},
		{id: 1, layer: lRouter, start: 10, end: 90},
		{id: 1, layer: lAttempt, start: 20, end: 50},
		{id: 1, layer: lAttempt, start: 40, end: 70},
		{id: 1, layer: lServer, start: 25, end: 45},
		{id: 1, layer: lServer, start: 45, end: 65},
		{id: 2, layer: lClient, start: 0, end: 30},
		{id: 2, layer: lAcquire, start: 1, end: 3},
		{id: 2, layer: lInfer, start: 3, end: 28},
	}
	self := selfTimes(spans)
	sum := func(xs []int64) (s int64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	for _, c := range []struct {
		l    layer
		want int64
	}{
		{lClient, 20 + 3}, // 100 − router 80; 30 − (acquire 2 + infer 25)
		{lRouter, 80 - 50},
		{lAttempt, (30 - 25) + (30 - 25)}, // each attempt minus both servers, clipped to it
		{lServer, 40},
		{lAcquire, 2},
		{lInfer, 25},
	} {
		if got := sum(self[c.l]); got != c.want {
			t.Errorf("%s self time = %d, want %d", layerNames[c.l], got, c.want)
		}
	}
	if got := pairDiffs(spans, lAttempt, lServer); len(got) != 0 {
		t.Errorf("pairDiffs over a request with two attempts = %v, want none", got)
	}
	one := []span{{id: 3, layer: lAttempt, start: 0, end: 50}, {id: 3, layer: lServer, start: 10, end: 40}}
	if got := pairDiffs(one, lAttempt, lServer); len(got) != 1 || got[0] != 20 {
		t.Errorf("pairDiffs = %v, want [20]", got)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {5, 20}, {60, 61}}
	if got := covered(iv); got != 31 {
		t.Errorf("covered = %d, want 31", got)
	}
}

func TestCheckerCountsCorruption(t *testing.T) {
	models, err := prepare([]modelRef{{dsIris, armPosit80}, {dsWBC, armMixed}}, [3][]int{{0, 1, 2}, {3, 4}, nil})
	if err != nil {
		t.Fatal(err)
	}
	for key, p := range models {
		if !selfTest(p) {
			t.Errorf("%s: checker self-test failed", key)
		}
		var c checker
		good := reply{logits: [][]float64{decodeBits(p.want[1])}}
		if !c.checkReply(p, 1, good) {
			t.Errorf("%s: faithful reply rejected", key)
		}
		if c.checkReply(p, 0, good) {
			t.Errorf("%s: reply for the wrong row accepted", key)
		}
		if c.checkBatch(p, []uint16{0, 1}, good) {
			t.Errorf("%s: short batch reply accepted", key)
		}
		if n := c.mismatches.Load(); n != 2 {
			t.Errorf("%s: %d mismatches counted, want 2", key, n)
		}
	}
}

func decodeBits(bits []uint64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// TestReferenceMatchesSessions pins the reference against the serving
// kernels for every arm the benchmark uses, so a mismatch in a run means
// the system under test changed, not the reference.
func TestReferenceMatchesSessions(t *testing.T) {
	var refs []modelRef
	for _, a := range []arm{armPosit80, armPosit81, armFloat84, armFixed84, armPosit161, armMixed} {
		refs = append(refs, modelRef{dsWBC, a})
	}
	refs = append(refs, modelRef{dsIris, armPosit81}, modelRef{dsMushroom, armPosit161})
	models, err := prepare(refs, [3][]int{{0, 7, 13}, {0, 50, 99, 150}, {0, 1000, 2000}})
	if err != nil {
		t.Fatal(err)
	}
	for key, p := range models {
		got := p.model.NewInferer().InferBatchInto(make([]float64, len(p.rows)*p.model.OutputDim()), p.rows)
		var c checker
		for i := range p.rows {
			od := p.model.OutputDim()
			c.check(p, i, got[i*od:(i+1)*od], -1)
		}
		if n := c.mismatches.Load(); n != 0 {
			t.Errorf("%s: %d rows differ from the MAC-bank reference", key, n)
		}
		if len(p.acts[0]) != len(layerParams(p.model)) || len(p.acts[0][0]) != p.model.InputDim() {
			t.Errorf("%s: layer inputs have the wrong shape", key)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics the program reports, with the same units, and every scored
// workload.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var scored []*workload
	for _, w := range workloads {
		if w.scored {
			scored = append(scored, w)
		}
	}
	if len(spec.Workloads) != len(scored) {
		t.Errorf("BENCHMARK.json has %d workloads, program scores %d", len(spec.Workloads), len(scored))
	}
	for i, w := range spec.Workloads {
		if i < len(scored) && (w.Name != scored[i].name || w.Why != scored[i].why) {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, scored[i].name, scored[i].why)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.what, len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i].Name != c.prog[i].name || c.json[i].Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", c.what, i,
					c.json[i].Name, c.json[i].Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Host: hostStamp(), Workload: "burst", Seconds: 10}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("identical hosts refused: %v", err)
	}
	b.Host.CPU += " (other)"
	if comparable(a, b) == nil {
		t.Error("records from different CPUs compared")
	}
	b = a
	b.Host.GOMAXPROCS++
	if comparable(a, b) == nil {
		t.Error("records with different GOMAXPROCS compared")
	}
}

// TestWorkloadsEndToEnd runs every workload briefly, traced, from the
// repository root, and checks that every reply matched the reference
// and every metric the contract names was produced. Failed requests are
// only logged: under the race detector burst's open loop outruns the
// instrumented server and the generator refuses arrivals.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the networks and serves traffic")
	}
	t.Chdir("..")
	for _, w := range workloads {
		var out strings.Builder
		rec, err := measure(w, 3, 2*time.Second, true, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, out.String())
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d\n%s", w.name, rec.Correct, rec.Attempted, out.String())
		}
		if rec.Failed != 0 {
			t.Logf("%s: %d of %d requests failed: %+v", w.name, rec.Failed, rec.Attempted, rec.Phases)
		}
		for _, traced := range []bool{false, true} {
			names := endToEnd
			if traced {
				names = perLayer
			}
			got := rec.contract(traced).Metrics
			if len(got) != len(names) {
				t.Errorf("%s traced=%t: %d metrics in the final line, want %d", w.name, traced, len(got), len(names))
			}
		}
	}
}
