package registry

// The dynamic micro-batcher. positrond's HTTP clients mostly send one
// sample per request, but the runtime's leased-plane batch path (0
// allocs/op steady state) amortises scheduling and decode costs across a
// whole batch. The batcher bridges the two: single-sample requests that
// arrive within a configurable window are coalesced into one batch, with
// per-request result demux — the serving analogue of the paper's
// streaming accelerator keeping its EMAC pipeline full.
//
// The batcher rides the flush pipeline: each window leases one of the
// runtime's D result planes (engine.AcquireFlushSlot), so flush N+1
// starts computing while flush N's results are still being
// demultiplexed and flush N+2 accumulates — collect, compute and demux
// overlap instead of serialising end to end. Bit-identity is
// unaffected: samples are independent, and each window computes into
// its own plane.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// ErrBatcherClosed is returned by Batcher calls after Close.
var ErrBatcherClosed = errors.New("registry: batcher closed")

// DefaultBatchWindow is the coalescing window used when none is
// configured: long enough to catch concurrent bursts, short enough to be
// invisible next to network latency. It caps how long a call waits for
// batch-mates; a call that arrives after a full window of silence runs
// at once. The cap is a Go runtime timer, and an idle process sleeps in
// whole milliseconds (the netpoller's epoll timeout), so a window flush
// can land up to about 1 ms late: on a 2-vCPU host at 20k singles/s the
// overshoot measured p50 0.54 ms, p90 0.86 ms.
const DefaultBatchWindow = 2 * time.Millisecond

// DefaultMaxBatch bounds a coalesced flush when no limit is configured.
const DefaultMaxBatch = 64

// DefaultFlushPipeline is the flush-slot plane count the registry gives
// batching runtimes when none is configured: two planes — compute flush
// N while flush N−1 demuxes — captures most of the overlap win at one
// extra result plane of memory (the Langroudi et al. bounded-memory
// framing: depth is a budget, not a free variable).
const DefaultFlushPipeline = 2

// call is one in-flight single-sample request waiting for its flush.
// ctx is the caller's context: a call whose ctx is done by flush time is
// dropped from the batch instead of burning an EMAC slot computing a
// result nobody will read. enq stamps when the call joined the pending
// queue, for the queue-wait half of the latency split.
type call struct {
	ctx    context.Context
	x      []float64
	enq    time.Time
	logits []float64
	err    error
	done   chan struct{}
}

// Batcher coalesces single-sample Infer calls in front of one Runtime.
// All methods are safe for concurrent use. Every inference — coalesced
// flushes and explicit InferBatch calls alike — runs through a leased
// flush slot, and results are copied out of the slot's plane before it
// is released; with D > 1 planes, flushes pipeline.
type Batcher struct {
	rt       *engine.Runtime
	window   time.Duration
	maxBatch int
	metrics  *Metrics
	inDim    int

	// mu guards the pending queue, the window timer, last and closed.
	mu      sync.Mutex
	pending []*call
	timer   *time.Timer
	last    time.Time // arrival of the latest coalescing Infer
	closed  bool

	// flights counts in-progress runtime operations (flushes and direct
	// batches). Close waits for it, so the runtime can be closed
	// afterwards without failing a flush that was mid-pipeline.
	flights sync.WaitGroup
}

// NewBatcher wraps a runtime with a micro-batcher. window <= 0 or
// maxBatch <= 1 disables coalescing: Infer degenerates to a
// single-sample batch on its own leased plane. metrics may be nil.
func NewBatcher(rt *engine.Runtime, window time.Duration, maxBatch int, metrics *Metrics) *Batcher {
	m := rt.Model()
	return &Batcher{
		rt:       rt,
		window:   window,
		maxBatch: maxBatch,
		metrics:  metrics,
		inDim:    m.InputDim(),
	}
}

// Runtime returns the wrapped runtime.
func (b *Batcher) Runtime() *engine.Runtime { return b.rt }

// Window returns the coalescing window (0 when batching is disabled).
func (b *Batcher) Window() time.Duration {
	if b.window <= 0 || b.maxBatch <= 1 {
		return 0
	}
	return b.window
}

// MaxBatch returns the coalesced-flush size bound.
func (b *Batcher) MaxBatch() int { return b.maxBatch }

func (b *Batcher) checkInput(x []float64) error {
	if len(x) != b.inDim {
		return fmt.Errorf("registry: input has %d features, model expects %d", len(x), b.inDim)
	}
	return nil
}

// beginOp registers one runtime operation so Close can wait out every
// in-flight flush before the registry closes the runtime underneath
// them. Fails with ErrBatcherClosed after Close.
func (b *Batcher) beginOp() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBatcherClosed
	}
	b.flights.Add(1)
	return nil
}

// Infer runs one sample. A call that finds nothing pending and follows
// a full window with no other Infer flushes at once on the caller's
// goroutine, so an idle batcher adds no wait. Otherwise the call joins
// the pending queue, which flushes one window after its first call or
// when maxBatch calls pend, whichever comes first: the window caps the
// wait, it never sets it — up to timer granularity: the window timer is
// a Go runtime timer, and an idle process wakes in whole milliseconds,
// so a window flush can land up to about 1 ms past the window. Results
// are demultiplexed per caller and are bit-identical to an unbatched
// call, because each inference in a batch is independent. Cancelling
// ctx abandons the wait (the flush may still compute the result; it is
// discarded). The returned slice is caller-owned.
func (b *Batcher) Infer(ctx context.Context, x []float64) ([]float64, error) {
	if err := b.checkInput(x); err != nil {
		return nil, err
	}
	start := time.Now()
	if b.Window() == 0 {
		if err := b.beginOp(); err != nil {
			return nil, err
		}
		out, err := b.inferDirect(ctx, [][]float64{x})
		b.flights.Done()
		if err != nil {
			return nil, err
		}
		b.metrics.ObserveLatency(time.Since(start))
		return out[0], nil
	}

	c := &call{ctx: ctx, x: x, enq: start, done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBatcherClosed
	}
	// A call that finds nothing pending and no arrival within the last
	// window is alone: waiting out the window could only add latency.
	idle := len(b.pending) == 0 && start.Sub(b.last) >= b.window
	b.last = start
	b.pending = append(b.pending, c)
	if idle || len(b.pending) >= b.maxBatch {
		batch := b.takeLocked()
		b.flights.Add(1)
		b.mu.Unlock()
		b.run(batch) // flush rides this caller's goroutine
		b.flights.Done()
	} else {
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.window, b.flush)
		}
		b.mu.Unlock()
	}

	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		b.metrics.ObserveLatency(time.Since(start))
		return c.logits, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// InferBatch runs an explicit client batch directly (no coalescing —
// the client already amortised the call) through its own flush slot, so
// it pipelines with coalesced windows instead of serialising against
// them. The returned slices are caller-owned.
func (b *Batcher) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if len(xs) == 0 {
		// Reject before the runtime: a zero-sample batch has no result to
		// return and would otherwise count a phantom flush in the metrics.
		return nil, errors.New("registry: empty batch")
	}
	for i, x := range xs {
		if err := b.checkInput(x); err != nil {
			return nil, fmt.Errorf("registry: batch input %d: %w", i, err)
		}
	}
	if err := b.beginOp(); err != nil {
		return nil, err
	}
	defer b.flights.Done()
	start := time.Now()
	out, err := b.inferDirect(ctx, xs)
	if err != nil {
		return nil, err
	}
	b.metrics.ObserveLatency(time.Since(start))
	return out, nil
}

// inferDirect runs one runtime batch for a caller that wants the results
// back (the passthrough and explicit-batch paths). It leases a flush
// slot — waiting for a free plane is this path's queue wait — and copies
// the results out of the plane before releasing it.
func (b *Batcher) inferDirect(ctx context.Context, xs [][]float64) ([][]float64, error) {
	acq := time.Now()
	slot, err := b.rt.AcquireFlushSlot(ctx)
	if err != nil {
		return nil, err
	}
	defer slot.Release()
	b.metrics.ObserveQueueWait(time.Since(acq))
	b.metrics.ObservePipelineDepth(b.rt.FlushSlotsInUse())
	computeStart := time.Now()
	rows, err := slot.InferBatch(ctx, xs)
	if err != nil {
		return nil, err
	}
	b.metrics.ObserveCompute(time.Since(computeStart))
	b.metrics.ObserveFlush(len(xs), false)
	return engine.CopyRows(rows), nil
}

// takeLocked detaches the pending queue and disarms the window timer.
// Caller holds b.mu.
func (b *Batcher) takeLocked() []*call {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// flush is the window-timer callback.
func (b *Batcher) flush() {
	b.mu.Lock()
	batch := b.takeLocked()
	if len(batch) == 0 {
		b.mu.Unlock()
		return
	}
	b.flights.Add(1)
	b.mu.Unlock()
	b.run(batch)
	b.flights.Done()
}

// run executes one coalesced window and demultiplexes results to the
// waiting callers. The flush context is Background: one caller's
// cancellation must not abort its batch-mates' inferences. Calls whose
// own context is already done are dropped before the runtime sees the
// batch — the caller returned at cancellation but its entry stayed in
// the pending queue, and computing it would waste EMAC compute, occupy
// a coalesced batch slot, and skew the batch-size histogram.
//
// The window computes in a leased flush slot: the demux copy happens
// after the slot's InferBatch returns but the plane is released the
// moment the copy is done — with D > 1 planes the next window's compute
// is already running while this one's callers are still being woken, so
// demux is off the compute critical path.
func (b *Batcher) run(batch []*call) {
	live := batch[:0]
	for _, c := range batch {
		select {
		case <-c.ctx.Done():
			c.err = c.ctx.Err()
			close(c.done)
		default:
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return
	}
	xs := make([][]float64, len(live))
	for i, c := range live {
		xs[i] = c.x
	}
	slot, err := b.rt.AcquireFlushSlot(context.Background())
	if err != nil {
		b.failAll(live, err)
		return
	}
	// The window's queue wait ends here: the flush is about to compute.
	now := time.Now()
	for _, c := range live {
		b.metrics.ObserveQueueWait(now.Sub(c.enq))
	}
	b.metrics.ObservePipelineDepth(b.rt.FlushSlotsInUse())
	out, err := slot.InferBatch(context.Background(), xs)
	if err != nil {
		slot.Release()
		b.failAll(live, err)
		return
	}
	b.metrics.ObserveCompute(time.Since(now))
	b.metrics.ObserveFlush(len(xs), true)
	// Demux copy: one flat caller-owned allocation for the window, then
	// the plane frees for the next flush before the callers wake.
	for i, row := range engine.CopyRows(out) {
		live[i].logits = row
	}
	slot.Release()
	for _, c := range live {
		close(c.done)
	}
}

// failAll delivers err to every live call of a window.
func (b *Batcher) failAll(live []*call, err error) {
	for _, c := range live {
		c.err = err
		close(c.done)
	}
}

// Close stops accepting new work, synchronously flushes any pending
// coalesced calls, and waits for every in-flight flush to finish — so
// no caller is left waiting and the owner may close the runtime
// immediately afterwards without failing a mid-pipeline window. It does
// not close the underlying runtime (the registry owns that ordering).
// Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	b.run(batch)
	b.flights.Wait()
}
