package registry

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// newTestBatcher builds a runtime with the registry's default flush
// pipeline and wraps it in a batcher.
func newTestBatcher(t *testing.T, window time.Duration, maxBatch int) (*Batcher, *Metrics) {
	t.Helper()
	model := posit8Model(11)
	rt, err := engine.NewRuntime(model, engine.WithWorkers(2), engine.WithFlushPipeline(DefaultFlushPipeline))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	m := &Metrics{}
	return NewBatcher(rt, window, maxBatch, m), m
}

// warm sends one request through infer. The first call after a silence
// flushes at once, so a test that parks calls in the pending queue
// warms first: calls made within the window afterwards wait as before.
func warm(t *testing.T, infer func(context.Context, []float64) ([]float64, error)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := infer(ctx, testInput(0)); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
}

// TestBatcherBitIdentity is the tentpole exactness contract: results
// demultiplexed from coalesced micro-batches are bit-identical to
// per-request InferBatch calls on a fresh runtime.
func TestBatcherBitIdentity(t *testing.T) {
	b, m := newTestBatcher(t, 200*time.Millisecond, 8)

	// Ground truth: the same model through unbatched single-sample calls.
	ref := b.Runtime().Model().NewInferer()
	const n = 32
	want := make([][]float64, n)
	for i := range want {
		want[i] = ref.Infer(testInput(i))
	}

	got := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = b.Infer(context.Background(), testInput(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d logits, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d logit %d: batched %v != unbatched %v",
					i, j, got[i][j], want[i][j])
			}
		}
	}

	// 32 concurrent requests with maxBatch 8 and a 200ms window must
	// coalesce: at least one flush carried more than one sample.
	snap := m.Snapshot()
	if snap.Requests != n {
		t.Fatalf("requests = %d, want %d", snap.Requests, n)
	}
	if snap.MaxCoalesced <= 1 {
		t.Fatalf("no coalescing happened: %+v", snap)
	}
	if snap.MaxCoalesced > 8 {
		t.Fatalf("coalesced flush of %d exceeds maxBatch 8", snap.MaxCoalesced)
	}
}

// TestBatcherFlushOnIdle: the window caps how long a call waits for
// batch-mates; it never sets the wait. A call that finds nothing pending
// and no arrival within the last window flushes at once, while calls
// within the window of an earlier one still coalesce. Results stay
// bit-identical to a serial session either way.
func TestBatcherFlushOnIdle(t *testing.T) {
	cases := []struct {
		name    string
		window  time.Duration
		warm    bool          // send one request before the measured calls
		silence time.Duration // pause between the warm-up and the calls
		calls   int           // concurrent measured calls
		bucket  string        // histogram bucket of their one flush
	}{
		{name: "lone call under a one-hour window", window: time.Hour, calls: 1, bucket: "1"},
		{name: "calls within the window coalesce", window: time.Hour, warm: true, calls: 3, bucket: "3-4"},
		{name: "call after a full window of silence", window: 100 * time.Millisecond, warm: true,
			silence: 100 * time.Millisecond, calls: 1, bucket: "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// maxBatch 3: a lone call can only flush early by being idle.
			b, m := newTestBatcher(t, tc.window, 3)
			ref := b.Runtime().Model().NewInferer()
			if tc.warm {
				warm(t, b.Infer)
				time.Sleep(tc.silence)
			}
			base := m.Snapshot()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got := make([][]float64, tc.calls)
			errs := make([]error, tc.calls)
			start := time.Now()
			var wg sync.WaitGroup
			wg.Add(tc.calls)
			for i := 0; i < tc.calls; i++ {
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = b.Infer(ctx, testInput(40+i))
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)

			for i := range got {
				if errs[i] != nil {
					t.Fatalf("call %d: %v", i, errs[i])
				}
				want := ref.Infer(testInput(40 + i))
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("call %d logit %d: %v != serial %v", i, j, got[i][j], want[j])
					}
				}
			}
			if elapsed >= tc.window {
				t.Fatalf("calls took %v, not under the %v window", elapsed, tc.window)
			}
			snap := m.Snapshot()
			if n := snap.Batches - base.Batches; n != 1 {
				t.Fatalf("%d flushes, want 1", n)
			}
			if n := snap.BatchSizeHist[tc.bucket] - base.BatchSizeHist[tc.bucket]; n != 1 {
				t.Fatalf("flush not in bucket %q: %v", tc.bucket, snap.BatchSizeHist)
			}
		})
	}
}

// TestBatcherExplicitBatchMatches: the direct batch path through the
// batcher (copied out of a leased plane) is also bit-identical, and
// interleaved batches never corrupt each other.
func TestBatcherExplicitBatchMatches(t *testing.T) {
	b, _ := newTestBatcher(t, time.Millisecond, 8)
	ref := b.Runtime().Model().NewInferer()

	const n = 16
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = testInput(i + 100)
	}
	var wg sync.WaitGroup
	results := make([][][]float64, 4)
	wg.Add(len(results))
	for g := range results {
		go func(g int) {
			defer wg.Done()
			out, err := b.InferBatch(context.Background(), xs)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for i, x := range xs {
		want := ref.Infer(x)
		for g, out := range results {
			for j := range want {
				if out[i][j] != want[j] {
					t.Fatalf("goroutine %d sample %d logit %d: %v != %v",
						g, i, j, out[i][j], want[j])
				}
			}
		}
	}
}

// TestBatcherSinglePlaneRuntime: over a single-plane runtime coalesced flushes serialise on the plane, and
// results are still bit-identical.
func TestBatcherSinglePlaneRuntime(t *testing.T) {
	model := posit8Model(12)
	rt, err := engine.NewRuntime(model, engine.WithWorkers(2), engine.WithFlushPipeline(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	b := NewBatcher(rt, 50*time.Millisecond, 8, &Metrics{})
	ref := model.NewInferer()

	const n = 16
	got := make([][]float64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			out, err := b.Infer(context.Background(), testInput(i))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = out
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		want := ref.Infer(testInput(i))
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("request %d logit %d: %v != %v", i, j, got[i][j], want[j])
			}
		}
	}
}

func TestBatcherPassthrough(t *testing.T) {
	b, m := newTestBatcher(t, 0, 8) // window 0: no coalescing
	if b.Window() != 0 {
		t.Fatalf("Window = %v, want 0", b.Window())
	}
	out, err := b.Infer(context.Background(), testInput(1))
	if err != nil || len(out) != 3 {
		t.Fatalf("passthrough: %v, %v", out, err)
	}
	if snap := m.Snapshot(); snap.CoalescedBatches != 0 || snap.Batches != 1 {
		t.Fatalf("passthrough metrics: %+v", snap)
	}
}

func TestBatcherBadInput(t *testing.T) {
	b, _ := newTestBatcher(t, time.Millisecond, 8)
	if _, err := b.Infer(context.Background(), []float64{1, 2}); err == nil {
		t.Fatal("wrong-width input accepted")
	}
	if _, err := b.InferBatch(context.Background(), [][]float64{testInput(0), {1}}); err == nil {
		t.Fatal("wrong-width batch element accepted")
	}
}

// TestBatcherCallerCancellation: a caller whose context dies while its
// request waits in the pending queue returns promptly; batch-mates are
// unaffected.
func TestBatcherCallerCancellation(t *testing.T) {
	b, _ := newTestBatcher(t, time.Hour, 1000) // flush effectively never fires on its own
	warm(t, b.Infer)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Infer(ctx, testInput(0))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller stuck")
	}
	b.Close() // flushes the abandoned call; must not hang or panic
}

// TestBatcherCancelledExcludedFromFlush: a caller that cancels while
// its call waits in the pending queue is dropped at flush time — the
// runtime batch carries only live calls, so abandoned requests neither
// consume EMAC compute nor skew the batch-size histogram.
func TestBatcherCancelledExcludedFromFlush(t *testing.T) {
	b, m := newTestBatcher(t, time.Hour, 3) // flush only when 3 calls pend
	warm(t, b.Infer)
	base := m.Snapshot()

	// Park a call, then cancel it. The caller returns; its entry stays
	// in the pending queue until the next flush.
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := b.Infer(ctx, testInput(0))
		parked <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("call never joined the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: %v", err)
	}

	// Two live calls push pending to maxBatch 3 and trigger the flush.
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 1; i <= 2; i++ {
		go func(i int) {
			defer wg.Done()
			if _, err := b.Infer(context.Background(), testInput(i)); err != nil {
				t.Errorf("live call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	snap := m.Snapshot()
	if n := snap.Requests - base.Requests; n != 2 {
		t.Fatalf("requests = %d, want 2 (cancelled call must not count)", n)
	}
	if snap.Batches-base.Batches != 1 || snap.MaxCoalesced != 2 {
		t.Fatalf("flush shape: %+v, want one coalesced batch of 2", snap)
	}
	if snap.BatchSizeHist["2"]-base.BatchSizeHist["2"] != 1 ||
		snap.BatchSizeHist["3-4"]-base.BatchSizeHist["3-4"] != 0 {
		t.Fatalf("histogram skewed by cancelled call: %v", snap.BatchSizeHist)
	}
}

// TestBatcherAllCancelledFlushSkipsRuntime: when every pending call was
// abandoned, the flush never reaches the runtime — no phantom batch is
// recorded (the ObserveFlush(0) bug) and Close does not hang.
func TestBatcherAllCancelledFlushSkipsRuntime(t *testing.T) {
	b, m := newTestBatcher(t, time.Hour, 1000)
	warm(t, b.Infer)
	base := m.Snapshot()
	const n = 4
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, err := b.Infer(ctx, testInput(i))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		pend := len(b.pending)
		b.mu.Unlock()
		if pend == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls never joined the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	b.Close() // flushes the all-cancelled queue
	snap := m.Snapshot()
	if snap.Batches != base.Batches || snap.Requests != base.Requests ||
		!maps.Equal(snap.BatchSizeHist, base.BatchSizeHist) {
		t.Fatalf("all-cancelled flush recorded a phantom batch: %+v", snap)
	}
}

// TestBatcherEmptyBatchRejected: a zero-sample explicit batch errors
// before it reaches the runtime.
func TestBatcherEmptyBatchRejected(t *testing.T) {
	b, m := newTestBatcher(t, time.Millisecond, 8)
	for _, xs := range [][][]float64{nil, {}} {
		if _, err := b.InferBatch(context.Background(), xs); err == nil {
			t.Fatalf("empty batch %v accepted", xs)
		}
	}
	if snap := m.Snapshot(); snap.Batches != 0 {
		t.Fatalf("empty batch reached the metrics: %+v", snap)
	}
}

// TestBatcherClose: pending calls are flushed (not dropped) on Close,
// and new work is rejected afterwards.
func TestBatcherClose(t *testing.T) {
	b, _ := newTestBatcher(t, time.Hour, 1000)
	warm(t, b.Infer)
	ref := b.Runtime().Model().NewInferer()
	want := ref.Infer(testInput(3))

	done := make(chan []float64, 1)
	go func() {
		out, err := b.Infer(context.Background(), testInput(3))
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	// Wait for the call to join the pending queue before closing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("call never joined the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	select {
	case out := <-done:
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("flushed-on-close logit %d: %v != %v", j, out[j], want[j])
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not flushed by Close")
	}
	if _, err := b.Infer(context.Background(), testInput(4)); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("infer after close: %v", err)
	}
	if _, err := b.InferBatch(context.Background(), [][]float64{testInput(5)}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("batch after close: %v", err)
	}
}

func TestMetricsHistogramAndPercentiles(t *testing.T) {
	m := &Metrics{}
	for _, size := range []int{1, 1, 2, 4, 7, 64, 200} {
		m.ObserveFlush(size, true)
	}
	for i := 1; i <= 100; i++ {
		m.ObserveLatency(time.Duration(i) * time.Millisecond)
	}
	s := m.Snapshot()
	if s.Requests != 1+1+2+4+7+64+200 || s.Batches != 7 || s.CoalescedBatches != 7 {
		t.Fatalf("counters: %+v", s)
	}
	wantHist := map[string]int64{"1": 2, "2": 1, "3-4": 1, "5-8": 1, "33-64": 1, "65+": 1}
	for k, v := range wantHist {
		if s.BatchSizeHist[k] != v {
			t.Fatalf("hist[%s] = %d, want %d (%v)", k, s.BatchSizeHist[k], v, s.BatchSizeHist)
		}
	}
	if s.MaxCoalesced != 200 {
		t.Fatalf("max coalesced = %d", s.MaxCoalesced)
	}
	if s.P50Ms != 50 || s.P99Ms != 99 {
		t.Fatalf("percentiles: p50=%v p99=%v", s.P50Ms, s.P99Ms)
	}
	// Size-0 flushes (and negative sizes) must not count: bucketFor(0)
	// would land in the "1" bucket and batches would over-count.
	m.ObserveFlush(0, true)
	m.ObserveFlush(-3, false)
	if s2 := m.Snapshot(); s2.Batches != s.Batches || s2.BatchSizeHist["1"] != s.BatchSizeHist["1"] {
		t.Fatalf("zero-size flush counted: %+v", s2)
	}

	var nilM *Metrics
	nilM.ObserveFlush(1, false) // nil metrics must be a no-op
	nilM.ObserveLatency(time.Second)
	nilM.ObserveAdmit()
	nilM.ObserveDone()
	nilM.ObserveRejected()
	nilM.ObserveTimeout()
	_ = nilM.Snapshot()
}
