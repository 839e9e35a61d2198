package engine

// Runtime contract tests: lifecycle (close drains, submit-after-close
// errors), context cancellation, mixed-precision serving and the
// leased-plane batch path. CI runs this file under -race, which is the
// point of the lifecycle tests — they hammer InferBatch/Close
// concurrently.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

// mixedFixture builds a mixed-precision network (one arm per family) and
// a synthetic dataset.
func mixedFixture(samples int) (*core.MixedNetwork, *datasets.Dataset) {
	src := nn.NewMLP([]int{12, 16, 8, 3}, rng.New(5))
	net := core.QuantizeMixed(src, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
	})
	r := rng.New(6)
	ds := &datasets.Dataset{Name: "synthetic", NumClasses: 3}
	for i := 0; i < samples; i++ {
		x := make([]float64, 12)
		for j := range x {
			x[j] = r.NormMS(0, 1)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, i%3)
	}
	return net, ds
}

func TestNewRuntimeRejectsNilModel(t *testing.T) {
	if _, err := NewRuntime(nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestQueueOccupancy: the runtime reports its job-queue capacity and
// occupancy — the backpressure signal the registry's admission gate
// surfaces per model.
func TestQueueOccupancy(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(2), WithQueueDepth(7))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.QueueCap() != 7 {
		t.Fatalf("QueueCap = %d, want 7", rt.QueueCap())
	}
	if n := rt.QueueLen(); n < 0 || n > rt.QueueCap() {
		t.Fatalf("QueueLen = %d out of [0, %d]", n, rt.QueueCap())
	}
}

// TestSubmitAfterCloseErrorsNotPanics: every way of submitting a batch
// after Close fails with ErrClosed.
func TestSubmitAfterCloseErrorsNotPanics(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InferBatch(context.Background(), ds.X); !errors.Is(err, ErrClosed) {
		t.Fatalf("InferBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := rt.PredictBatch(context.Background(), ds.X); !errors.Is(err, ErrClosed) {
		t.Fatalf("PredictBatch after Close = %v, want ErrClosed", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestCloseDrainsInFlightStreaming closes the runtime while many
// goroutines are still streaming batches into it: every batch that was
// accepted must come back complete and bit-identical, and late batches
// must observe ErrClosed rather than panic. Run under -race this is the
// lifecycle stress of Close racing producers.
func TestCloseDrainsInFlightStreaming(t *testing.T) {
	net, ds := fixture(emac.NewFixed(8, 4), 64)
	want := serial(net, ds.X)
	rt, err := NewRuntime(net, WithWorkers(4), WithQueueDepth(8), WithFlushPipeline(4))
	if err != nil {
		t.Fatal(err)
	}
	var accepted, rejected atomic.Int64
	var producers sync.WaitGroup
	for g := 0; g < 8; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for i := 0; i < 50; i++ {
				lo := (g + i) % len(ds.X)
				hi := min(lo+8, len(ds.X))
				got, err := rt.InferBatch(context.Background(), ds.X[lo:hi])
				switch {
				case err == nil:
					accepted.Add(1)
					for k := range got {
						for j := range got[k] {
							if got[k][j] != want[lo+k][j] {
								t.Errorf("accepted batch sample %d diverged", lo+k)
								return
							}
						}
					}
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
				default:
					t.Errorf("InferBatch: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) // let some work get in flight
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	producers.Wait()
	if accepted.Load() == 0 {
		t.Fatal("no batch was accepted before Close")
	}
}

func TestInferBatchObservesCancellation(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 32)
	rt := newRuntime(t, net, WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.InferBatch(ctx, ds.X); !errors.Is(err, context.Canceled) {
		t.Fatalf("InferBatch with cancelled ctx = %v, want context.Canceled", err)
	}
	// The runtime stays usable after a cancelled batch.
	out, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil || len(out) != len(ds.X) {
		t.Fatalf("recovery batch: %v (%d results)", err, len(out))
	}
}

// TestSubmitObservesCancellation holds every plane, so a submitted
// batch waits for a lease, and verifies the wait unblocks with the
// context error and leaves no plane leaked.
func TestSubmitObservesCancellation(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 4)
	rt := newRuntime(t, net, WithWorkers(1), WithFlushPipeline(1))
	held, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rt.InferBatch(ctx, ds.X); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("InferBatch on a fully leased runtime = %v, want context.DeadlineExceeded", err)
	}
	held.Release()
	if got := rt.FlushSlotsInUse(); got != 0 {
		t.Fatalf("FlushSlotsInUse = %d after the cancelled wait, want 0", got)
	}
	if _, err := rt.InferBatch(context.Background(), ds.X); err != nil {
		t.Fatalf("batch after release: %v", err)
	}
}

func TestRuntimeServesMixedModels(t *testing.T) {
	net, ds := mixedFixture(120)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	rt, err := NewRuntime(net, WithWorkers(6), WithWarmTables())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("mixed sample %d logit %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	acc, err := rt.Accuracy(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if serial := net.Accuracy(ds); acc != serial {
		t.Fatalf("runtime accuracy %v != serial %v", acc, serial)
	}
}

// TestFlushSlotBitIdenticalAndReused: a held plane's results are
// bit-identical to a serial session, its next batch reuses the same
// backing memory, and once grown it computes without allocating.
func TestFlushSlotBitIdenticalAndReused(t *testing.T) {
	net, ds := fixture(emac.NewFloatN(8, 4), 80)
	want := serial(net, ds.X)
	rt := newRuntime(t, net, WithWorkers(4))
	slot, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer slot.Release()
	got, err := slot.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("plane sample %d logit %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	again, err := slot.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0][0] != &got[0][0] {
		t.Fatal("second batch on the slot did not reuse its plane")
	}
	for i := range again {
		for j := range again[i] {
			if again[i][j] != want[i][j] {
				t.Fatalf("second batch diverged at sample %d", i)
			}
		}
	}
	// Each worker's inferer grows its scratch on the first chunk it
	// happens to receive, so a multi-worker pool reaches steady state at
	// a scheduling-dependent moment. One worker makes it deterministic.
	one, err := newRuntime(t, net, WithWorkers(1)).AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer one.Release()
	if _, err := one.InferBatch(context.Background(), ds.X); err != nil {
		t.Fatal(err)
	}
	// The malloc counter is process-wide, so a rare one-off allocation by
	// the Go runtime can land in a measurement window; a steady-state
	// allocation shows up in every window.
	allocs := -1.0
	for try := 0; try < 3 && allocs != 0; try++ {
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := one.InferBatch(context.Background(), ds.X); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs != 0 {
		t.Fatalf("steady-state FlushSlot.InferBatch allocates %v times per call, want 0", allocs)
	}
}

func TestRuntimeRejectsMisshapenInput(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt := newRuntime(t, net, WithWorkers(1))
	if _, err := rt.InferBatch(context.Background(), [][]float64{make([]float64, 5)}); err == nil {
		t.Fatal("misshapen batch accepted")
	}
	if got := rt.FlushSlotsInUse(); got != 0 {
		t.Fatalf("rejected batch leaked a plane: %d in use", got)
	}
}

// TestPlaneConcurrentConsumers hammers PredictBatch/Accuracy
// concurrently on more goroutines than planes: classes must be computed
// from the caller's own batch, never another batch's logits (each plane
// is reduced while still leased). Run under -race in CI.
func TestPlaneConcurrentConsumers(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 60)
	rt := newRuntime(t, net, WithWorkers(4))
	wantClasses, err := rt.PredictBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc, err := rt.Accuracy(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					got, err := rt.PredictBatch(context.Background(), ds.X)
					if err != nil {
						t.Errorf("PredictBatch: %v", err)
						return
					}
					for j := range got {
						if got[j] != wantClasses[j] {
							t.Errorf("class %d: %d != %d", j, got[j], wantClasses[j])
							return
						}
					}
				} else {
					got, err := rt.Accuracy(context.Background(), ds)
					if err != nil || got != wantAcc {
						t.Errorf("accuracy %v (%v)", got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
