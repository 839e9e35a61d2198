package registry

// Admission-control coverage: the gate sheds instead of queueing, the
// per-request deadline fires before queue-blocked requests hang forever,
// and admitted requests remain bit-identical to unbatched inference.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// newAdmissionRegistry loads one posit8 model into a registry built with
// the given extra options and returns a pinned handle (released in
// cleanup).
func newAdmissionRegistry(t *testing.T, opts ...Option) *Handle {
	t.Helper()
	r := New(append([]Option{WithRuntimeOptions(engine.WithWorkers(2))}, opts...)...)
	t.Cleanup(func() { r.Close() })
	if err := r.Load("m", posit8Model(31)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Release)
	return h
}

// TestAdmissionRejectsAtCap: with max in-flight 1 and a request parked
// in the (never-flushing) batcher, a second request is shed immediately
// with ErrOverloaded, and the rejected counter and in-flight gauge
// record it.
func TestAdmissionRejectsAtCap(t *testing.T) {
	h := newAdmissionRegistry(t,
		WithMaxInFlight(1),
		WithBatchWindow(time.Hour), // the parked request never flushes on its own
		WithMaxBatch(1000),
	)
	if h.MaxInFlight() != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", h.MaxInFlight())
	}
	warm(t, h.Infer)
	base := h.Metrics().Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := h.Infer(ctx, testInput(0))
		parked <- err
	}()
	// Wait for the parked request to occupy the slot (it joins the
	// batcher's pending queue while holding it).
	deadline := time.Now().Add(5 * time.Second)
	for h.Metrics().Snapshot().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := h.Infer(context.Background(), testInput(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap request: %v, want ErrOverloaded", err)
	}
	snap := h.Metrics().Snapshot()
	if rejected := snap.Rejected - base.Rejected; rejected != 1 || snap.InFlight != 1 {
		t.Fatalf("after shed: rejected=%d in_flight=%d, want 1/1", rejected, snap.InFlight)
	}

	// Free the slot; the gauge drains and admission reopens.
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked request: %v, want context.Canceled", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for h.Metrics().Snapshot().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight gauge never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBurstBitIdentity fires a burst far past the cap: some
// requests shed with ErrOverloaded, every admitted one returns logits
// bit-identical to unbatched single-session inference, and the
// accounting (admitted + rejected = fired) balances.
func TestAdmissionBurstBitIdentity(t *testing.T) {
	h := newAdmissionRegistry(t,
		WithMaxInFlight(2),
		WithBatchWindow(10*time.Millisecond),
		WithMaxBatch(8),
	)
	ref := h.Model().NewInferer()

	const n = 32
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rejected int
		served   int
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			out, err := h.Infer(context.Background(), testInput(i))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected++
			case err != nil:
				t.Errorf("request %d: %v", i, err)
			default:
				served++
				want := ref.Infer(testInput(i))
				for j := range want {
					if out[j] != want[j] {
						t.Errorf("request %d logit %d: admitted %v != unbatched %v",
							i, j, out[j], want[j])
					}
				}
			}
		}(i)
	}
	wg.Wait()

	if served == 0 {
		t.Fatal("no request was admitted")
	}
	if served+rejected != n {
		t.Fatalf("served %d + rejected %d != fired %d", served, rejected, n)
	}
	snap := h.Metrics().Snapshot()
	if snap.Rejected != int64(rejected) {
		t.Fatalf("metrics rejected = %d, observed %d", snap.Rejected, rejected)
	}
	if snap.Requests != int64(served) {
		t.Fatalf("metrics requests = %d, served %d", snap.Requests, served)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after burst drained", snap.InFlight)
	}
}

// TestRequestTimeoutFires: a request stuck behind a never-flushing
// window fails with ErrRequestTimeout at the configured deadline instead
// of hanging forever, and the timed-out counter records it.
func TestRequestTimeoutFires(t *testing.T) {
	h := newAdmissionRegistry(t,
		WithRequestTimeout(30*time.Millisecond),
		WithBatchWindow(time.Hour),
		WithMaxBatch(1000),
	)
	if h.RequestTimeout() != 30*time.Millisecond {
		t.Fatalf("RequestTimeout = %v", h.RequestTimeout())
	}
	warm(t, h.Infer)
	base := h.Metrics().Snapshot()
	start := time.Now()
	_, err := h.Infer(context.Background(), testInput(2))
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("stuck request: %v, want ErrRequestTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	snap := h.Metrics().Snapshot()
	if n := snap.TimedOut - base.TimedOut; n != 1 {
		t.Fatalf("timed_out = %d, want 1", n)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in_flight = %d after timeout released the slot", snap.InFlight)
	}
}

// TestRequestTimeoutKeepsCallerCancellation: a caller whose own context
// is cancelled gets context.Canceled back, not ErrRequestTimeout, even
// with a registry deadline configured.
func TestRequestTimeoutKeepsCallerCancellation(t *testing.T) {
	h := newAdmissionRegistry(t,
		WithRequestTimeout(time.Hour),
		WithBatchWindow(time.Hour),
		WithMaxBatch(1000),
	)
	warm(t, h.Infer)
	base := h.Metrics().Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.Infer(ctx, testInput(3))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v, want context.Canceled", err)
		}
		if snap := h.Metrics().Snapshot(); snap.TimedOut != base.TimedOut {
			t.Fatalf("cancellation miscounted as timeout: %+v", snap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller stuck")
	}
}

// TestAdmissionUnlimitedByDefault: without WithMaxInFlight the gate
// admits everything and only the gauge moves.
func TestAdmissionUnlimitedByDefault(t *testing.T) {
	h := newAdmissionRegistry(t, WithBatchWindow(time.Millisecond), WithMaxBatch(4))
	if h.MaxInFlight() != 0 {
		t.Fatalf("MaxInFlight = %d, want 0 (unlimited)", h.MaxInFlight())
	}
	const n = 16
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if _, err := h.Infer(context.Background(), testInput(i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	snap := h.Metrics().Snapshot()
	if snap.Rejected != 0 || snap.TimedOut != 0 || snap.InFlight != 0 {
		t.Fatalf("unlimited gate moved counters: %+v", snap)
	}
	if snap.Requests != n {
		t.Fatalf("requests = %d, want %d", snap.Requests, n)
	}
}

// TestHandleInferBatchAdmission: an explicit batch counts as one
// in-flight request and is shed whole at the cap.
func TestHandleInferBatchAdmission(t *testing.T) {
	h := newAdmissionRegistry(t,
		WithMaxInFlight(1),
		WithBatchWindow(time.Hour),
		WithMaxBatch(1000),
	)
	warm(t, h.Infer)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := h.Infer(ctx, testInput(0))
		parked <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for h.Metrics().Snapshot().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	xs := [][]float64{testInput(1), testInput(2)}
	if _, err := h.InferBatch(context.Background(), xs); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap batch: %v, want ErrOverloaded", err)
	}
	cancel()
	<-parked

	// With the slot free the same batch is admitted and served.
	deadline = time.Now().Add(5 * time.Second)
	for h.Metrics().Snapshot().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	out, err := h.InferBatch(context.Background(), xs)
	if err != nil || len(out) != 2 {
		t.Fatalf("admitted batch: %v, %v", out, err)
	}
}
