package registry

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/rng"
)

// testModel quantises a small deterministic MLP; in/out dims match the
// Iris topology so inputs are cheap to fabricate.
func testModel(seed uint64, a emac.Arithmetic) core.Model {
	net := nn.NewMLP([]int{4, 8, 3}, rng.New(seed))
	return core.Quantize(net, a)
}

func posit8Model(seed uint64) core.Model { return testModel(seed, emac.NewPosit(8, 0)) }

func testInput(i int) []float64 {
	return []float64{float64(i%7) - 3, 0.5, float64(i % 3), -1.25}
}

func TestLoadAcquireUnload(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(2)))
	defer r.Close()
	if err := r.Load("iris", posit8Model(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("iris", posit8Model(2)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate load: %v, want ErrExists", err)
	}
	if got := r.Names(); len(got) != 1 || got[0] != "iris" {
		t.Fatalf("Names = %v", got)
	}

	h, err := r.Acquire("iris")
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Batcher().Infer(context.Background(), testInput(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d logits", len(out))
	}
	h.Release()

	if err := r.Unload("iris"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("iris"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("acquire after unload: %v, want ErrNotFound", err)
	}
	if err := r.Unload("iris"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unload: %v, want ErrNotFound", err)
	}
}

// gatedModel wraps a core.Model so every fused batch call reports on
// entered and then blocks until release closes: a test can hold
// inferences in flight and count them.
type gatedModel struct {
	core.Model
	entered chan struct{}
	release chan struct{}
}

func (m *gatedModel) NewInferer() core.Inferer {
	return &gatedInferer{Inferer: m.Model.NewInferer(), m: m}
}

type gatedInferer struct {
	core.Inferer
	m *gatedModel
}

func (g *gatedInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	g.m.entered <- struct{}{}
	<-g.m.release
	return g.Inferer.InferBatchInto(dst, xs)
}

// TestFlushDepthTracksBatching: a coalescing runtime keeps the
// configured flush-pipeline depth; with batching disabled the depth is
// at least the worker count, and that many concurrent Handle.Infer
// calls are in flight at once — every request leases its own plane, so
// passthrough traffic still fills the pool.
func TestFlushDepthTracksBatching(t *testing.T) {
	batched := New(WithRuntimeOptions(engine.WithWorkers(4)), WithFlushPipeline(3))
	defer batched.Close()
	if err := batched.Load("m", posit8Model(20)); err != nil {
		t.Fatal(err)
	}
	h, _ := batched.Acquire("m")
	if d := h.Runtime().FlushPipelineDepth(); d != 3 {
		t.Fatalf("batching runtime depth = %d, want the configured 3", d)
	}
	h.Release()

	const workers = 4
	gm := &gatedModel{Model: posit8Model(21), entered: make(chan struct{}), release: make(chan struct{})}
	plain := New(WithRuntimeOptions(engine.WithWorkers(workers)), WithBatchWindow(0), WithFlushPipeline(2))
	defer plain.Close()
	if err := plain.Load("m", gm); err != nil {
		t.Fatal(err)
	}
	h2, _ := plain.Acquire("m")
	defer h2.Release()
	if h2.Batcher().Window() != 0 {
		t.Fatalf("Window = %v, want 0", h2.Batcher().Window())
	}
	if d := h2.Runtime().FlushPipelineDepth(); d < workers {
		t.Fatalf("window-0 runtime depth = %d, want >= %d workers", d, workers)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = h2.Infer(context.Background(), testInput(i))
		}(i)
	}
	for i := 0; i < workers; i++ {
		select {
		case <-gm.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d concurrent window-0 requests reached a worker", i, workers)
		}
	}
	if got := h2.Runtime().FlushSlotsInUse(); got != workers {
		t.Fatalf("FlushSlotsInUse = %d with %d requests in flight", got, workers)
	}
	close(gm.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestInvalidNames(t *testing.T) {
	r := New()
	defer r.Close()
	for _, name := range []string{"", "a/b", "a b", "héllo", ".", ".."} {
		if err := r.Load(name, posit8Model(1)); err == nil {
			t.Errorf("Load(%q) succeeded, want error", name)
		}
	}
	for _, name := range []string{"iris", "wbc-8.4", "A_b.c-2"} {
		if err := r.Load(name, posit8Model(1)); err != nil {
			t.Errorf("Load(%q): %v", name, err)
		}
	}
}

// TestUnloadWaitsForHandles: unload must not close the runtime while a
// handle (an in-flight request) is outstanding, and a GC sweep must not
// remove the model's bytes until that handle drains.
func TestUnloadWaitsForHandles(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.Load("m", posit8Model(3)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}

	unloaded := make(chan struct{})
	go func() {
		if err := r.Unload("m"); err != nil {
			t.Error(err)
		}
		close(unloaded)
	}()

	// The name disappears promptly even while the handle pins the entry.
	deadline := time.Now().Add(2 * time.Second)
	for r.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("entry still listed while unloading")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-unloaded:
		t.Fatal("Unload returned while a handle was outstanding")
	case <-time.After(50 * time.Millisecond):
	}

	// The pinned entry still serves.
	if _, err := h.Batcher().Infer(context.Background(), testInput(1)); err != nil {
		t.Fatalf("infer on pinned handle: %v", err)
	}
	if removed, _, err := r.GC(); err != nil || removed != 0 {
		t.Fatalf("GC while draining: removed %d, %v; want 0", removed, err)
	}
	if _, err := r.Store().Get(h.ContentHash()); err != nil {
		t.Fatalf("draining model's blob: %v", err)
	}
	h.Release()
	select {
	case <-unloaded:
	case <-time.After(5 * time.Second):
		t.Fatal("Unload did not return after the last release")
	}
	if removed, _, err := r.GC(); err != nil || removed != 1 {
		t.Fatalf("GC after drain: removed %d, %v; want 1", removed, err)
	}
	// The drained runtime is closed.
	if _, err := h.Runtime().InferBatch(context.Background(), [][]float64{testInput(2)}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("runtime after unload: %v, want ErrClosed", err)
	}
}

// TestConcurrentLifecycle hammers one model name from 8 goroutines that
// each load, infer and unload in a loop — run under -race this is the
// registry's central concurrency contract.
func TestConcurrentLifecycle(t *testing.T) {
	r := New(
		WithRuntimeOptions(engine.WithWorkers(1)),
		WithBatchWindow(100*time.Microsecond),
		WithMaxBatch(4),
	)
	defer r.Close()
	model := posit8Model(4)

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch err := r.Load("shared", model); {
				case err == nil, errors.Is(err, ErrExists):
				default:
					t.Errorf("g%d load: %v", g, err)
					return
				}
				h, err := r.Acquire("shared")
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // another goroutine unloaded first
					}
					t.Errorf("g%d acquire: %v", g, err)
					return
				}
				_, err = h.Batcher().Infer(context.Background(), testInput(g*iters+i))
				if err != nil && !errors.Is(err, ErrBatcherClosed) && !errors.Is(err, engine.ErrClosed) {
					t.Errorf("g%d infer: %v", g, err)
				}
				h.Release()
				if err := r.Unload("shared"); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("g%d unload: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoadBytes is the upload path: a serialised artifact loads from raw
// JSON and serves identically to the in-memory model.
func TestLoadBytes(t *testing.T) {
	model := posit8Model(5)
	data, err := json.Marshal(model.(json.Marshaler))
	if err != nil {
		t.Fatal(err)
	}
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.LoadBytes("up", data); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("up")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	x := testInput(6)
	got, err := h.Batcher().Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want := model.NewInferer().Infer(x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: %v != %v", j, got[j], want[j])
		}
	}

	if err := r.LoadBytes("bad", []byte("{not json")); err == nil {
		t.Fatal("malformed artifact loaded")
	}
}

func TestStats(t *testing.T) {
	r := New(
		WithRuntimeOptions(engine.WithWorkers(2)),
		WithBatchWindow(3*time.Millisecond),
		WithMaxBatch(16),
	)
	defer r.Close()
	if err := r.Load("b-model", posit8Model(6)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("a-model", testModel(7, emac.NewFixed(8, 4))); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != 2 || stats[0].Name != "a-model" || stats[1].Name != "b-model" {
		t.Fatalf("stats order: %+v", stats)
	}
	s := stats[0]
	if s.Kind != "uniform" || s.InputDim != 4 || s.OutputDim != 3 || s.Workers != 2 ||
		s.MaxBatch != 16 || s.BatchWindow != "3ms" {
		t.Fatalf("stat: %+v", s)
	}

	h, _ := r.Acquire("a-model")
	if _, err := h.Batcher().Infer(context.Background(), testInput(1)); err != nil {
		t.Fatal(err)
	}
	h.Release()
	st, err := r.Stat("a-model")
	if err != nil {
		t.Fatal(err)
	}
	if st.Metrics.Requests != 1 || st.Metrics.Batches != 1 || st.Metrics.LatencySamples != 1 {
		t.Fatalf("metrics after one request: %+v", st.Metrics)
	}
	if _, err := r.Stat("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(nope): %v", err)
	}
}

func TestRegistryClose(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	if err := r.Load("a", posit8Model(8)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("b", posit8Model(9)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := r.Acquire("a"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
	if err := r.Load("c", posit8Model(10)); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("load after close: %v", err)
	}
	// Unload of a model that WAS loaded must report shutdown, not a bad
	// name — clients distinguish "retry elsewhere" from "fix your name".
	if err := r.Unload("a"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("unload after close: %v, want ErrRegistryClosed", err)
	}
	if err := r.Unload("never-existed"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("unload of unknown name after close: %v, want ErrRegistryClosed", err)
	}
}
