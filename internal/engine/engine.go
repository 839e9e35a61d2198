// Package engine is the concurrent inference plane on top of the core
// model/session split. The paper describes Deep Positron as a streaming
// accelerator serving a stream of inputs; this package is the software
// analogue for dataset-scale evaluation and serving.
//
// Runtime is the serving-grade execution plane: a worker pool in which
// every worker owns one shared-nothing core.Inferer over one immutable
// core.Model (uniform or mixed precision alike). It is configured with
// functional options, observes context cancellation, and fails with
// errors rather than panics on misuse. One layer up, internal/registry
// serves many named Runtimes side by side with micro-batching.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/posit"
)

// ErrClosed is returned by Runtime methods called after Close.
var ErrClosed = errors.New("engine: runtime closed")

// ErrPanic wraps a panic recovered inside a worker: the inference that
// panicked fails with this error, the worker survives with a fresh
// execution plane, and Runtime.Panics counts the event. A poisoned
// input must cost one request, never the daemon.
var ErrPanic = errors.New("engine: inference panicked")

// task is one fused batch chunk: the worker runs xs through the
// inferer's batched kernels in one InferBatchInto call, decoding into
// dst (len(xs) × output width, a window of the slot's plane), then
// reports to the slot. start is xs[0]'s index in the slot's batch.
type task struct {
	start int
	xs    [][]float64
	dst   []float64
	slot  *FlushSlot
}

// config collects the functional options.
type config struct {
	workers    int
	queueDepth int
	warmTables bool
	flushDepth int // 0: unset
}

// Option configures a Runtime at construction.
type Option func(*config)

// WithWorkers sets the worker-pool size; n <= 0 selects GOMAXPROCS (the
// default).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithQueueDepth sets the job-queue capacity; n <= 0 selects twice the
// worker count (the default). A deeper queue lets more batch chunks
// wait for a worker at the cost of buffered latency.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithWarmTables eagerly builds the posit decode and Mul/Add fast-path
// tables for every posit layer format before the first inference, so no
// request pays the lazy table-construction latency.
func WithWarmTables() Option { return func(c *config) { c.warmTables = true } }

// WithFlushPipeline sets the number of leasable result planes (see
// AcquireFlushSlot). With d planes, d batch computations can be in
// flight at once — one plane computing while another's readers still
// demultiplex — which is how the serving micro-batcher overlaps
// collect/compute/demux instead of serialising them end to end. d <= 1
// keeps a single plane: batches serialise on it. Without this option a
// runtime has one plane per worker, so as many concurrent InferBatch
// callers as there are workers each hold a plane at once.
func WithFlushPipeline(d int) Option { return func(c *config) { c.flushDepth = max(d, 1) } }

// Runtime is a context-aware worker-pool inference runtime over one
// immutable Model. Every inference runs the same way: lease one of the
// runtime's result planes, compute the batch into it on the pool, copy
// the logits out (or reduce them in place), release the plane. All
// methods are safe for concurrent use, including Close: closing drains
// in-flight work, and calls after Close return ErrClosed.
type Runtime struct {
	model   core.Model
	workers int
	jobs    chan task

	wg sync.WaitGroup // workers

	// mu guards closed. Producers hold it for reading while enqueueing, so
	// jobs is never closed mid-send.
	mu     sync.RWMutex
	closed bool

	// panics counts inferences that panicked inside a worker (each one
	// failed with ErrPanic; the worker survived).
	panics atomic.Int64

	// planes holds the flushDepth leasable result planes not currently
	// leased (see AcquireFlushSlot).
	flushDepth int
	planes     chan *FlushSlot
}

// NewRuntime starts a runtime over the model. Each worker builds its own
// core.Inferer (pre-decoded kernels included), so workers share nothing
// but the read-only model plane. Call Close to release the pool.
func NewRuntime(model core.Model, opts ...Option) (*Runtime, error) {
	if model == nil {
		return nil, errors.New("engine: nil model")
	}
	if model.NumLayers() == 0 {
		return nil, errors.New("engine: model has no layers")
	}
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 2 * cfg.workers
	}
	if cfg.warmTables {
		for _, a := range model.Ariths() {
			if pa, ok := a.(emac.PositArith); ok {
				posit.WarmTables(pa.F)
			}
		}
	}
	if cfg.flushDepth == 0 {
		cfg.flushDepth = cfg.workers
	}
	r := &Runtime{
		model:      model,
		workers:    cfg.workers,
		jobs:       make(chan task, cfg.queueDepth),
		flushDepth: cfg.flushDepth,
		planes:     make(chan *FlushSlot, cfg.flushDepth),
	}
	for i := 0; i < cfg.flushDepth; i++ {
		r.planes <- &FlushSlot{r: r}
	}
	r.wg.Add(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		go r.worker()
	}
	return r, nil
}

// worker drains the job queue through one private execution plane. A
// model kernel that panics fails its own chunk with ErrPanic and costs
// this worker its inferer (the panic may have left scratch buffers
// half-written, so a fresh one is built) — but never the worker, and
// never the daemon.
func (r *Runtime) worker() {
	defer r.wg.Done()
	s := r.model.NewInferer()
	for t := range r.jobs {
		err := runChunk(s, t)
		if err != nil {
			r.panics.Add(1)
			s = r.model.NewInferer()
		}
		t.slot.chunkDone(t.start, err)
	}
}

// runChunk executes one fused batch chunk, converting a panic into an
// error.
func runChunk(s core.Inferer, t task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	s.InferBatchInto(t.dst, t.xs)
	return nil
}

// Model returns the model plane the runtime serves.
func (r *Runtime) Model() core.Model { return r.model }

// Workers returns the pool size.
func (r *Runtime) Workers() int { return r.workers }

// QueueCap returns the job-queue capacity configured at construction
// (WithQueueDepth, default twice the worker count).
func (r *Runtime) QueueCap() int { return cap(r.jobs) }

// QueueLen returns the current job-queue occupancy: batch chunks
// submitted but not yet picked up by a worker. Together with QueueCap it
// is the backpressure signal an admission layer reads to shed load
// instead of letting requests queue without bound.
func (r *Runtime) QueueLen() int { return len(r.jobs) }

// Panics returns how many inferences have panicked inside workers since
// construction. Each one failed its own batch with ErrPanic while the
// worker survived; a nonzero value means some model kernel is unsound
// for some inputs and deserves investigation.
func (r *Runtime) Panics() int64 { return r.panics.Load() }

// checkInput validates one input vector against the model shape.
func (r *Runtime) checkInput(x []float64) error {
	if want := r.model.InputDim(); len(x) != want {
		return fmt.Errorf("engine: input has %d features, model expects %d", len(x), want)
	}
	return nil
}

// enqueue submits one task, respecting cancellation (an already-
// cancelled context never enqueues). The caller must hold r.mu for
// reading with r.closed == false.
func (r *Runtime) enqueue(ctx context.Context, t task) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case r.jobs <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FlushSlot is one leased result plane: a runtime-owned flat logits
// buffer plus the machinery to run one batch into it. Between
// AcquireFlushSlot and Release the plane belongs to the holder alone, so
// a second slot's InferBatch can compute while this slot's results are
// still being read — the serving-plane analogue of the paper's
// accelerator keeping its EMAC pipeline full across windows. A FlushSlot
// is single-owner: its methods must not be called concurrently.
type FlushSlot struct {
	r     *Runtime
	buf   []float64
	rows  [][]float64
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error
}

// FlushPipelineDepth returns the number of result planes.
func (r *Runtime) FlushPipelineDepth() int { return r.flushDepth }

// FlushSlotsInUse returns how many result planes are currently leased —
// the live pipeline-depth gauge the serving metrics report.
func (r *Runtime) FlushSlotsInUse() int { return r.flushDepth - len(r.planes) }

// AcquireFlushSlot leases one result plane, blocking while all
// FlushPipelineDepth planes are held (backpressure: the pipeline is
// bounded, a stalled reader can stall at most its own plane's
// successors). It unblocks with ctx.Err on cancellation and fails with
// ErrClosed after Close. Callers must Release the slot exactly once.
func (r *Runtime) AcquireFlushSlot(ctx context.Context) (*FlushSlot, error) {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	select {
	case s := <-r.planes:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns the plane to the pipeline, waking one blocked
// AcquireFlushSlot. The slot's previous InferBatch results are invalid
// from this point. Release exactly once per acquisition.
func (s *FlushSlot) Release() { s.r.planes <- s }

// chunkDone records one finished chunk of the slot's batch.
func (s *FlushSlot) chunkDone(start int, err error) {
	if err != nil {
		s.errMu.Lock()
		if s.err == nil {
			s.err = fmt.Errorf("engine: batch chunk at input %d: %w", start, err)
		}
		s.errMu.Unlock()
	}
	s.wg.Done()
}

// InferBatch splits the batch into one fused chunk per worker, runs each
// chunk through the inferer's batched layer kernels in a single call (so
// every weight row is decoded once per chunk instead of once per
// sample), and decodes the logits into this slot's plane. Rows come back
// in input order, bit-identical to running one core session serially:
// each sample's arithmetic is unchanged, only the loop order differs.
// They stay valid until Release or the slot's next InferBatch, and
// other slots' in-flight batches never touch them. Once the plane has
// grown to the batch size, a call allocates nothing. Cancelling ctx
// stops submission and returns ctx.Err after every already-submitted
// chunk has drained — no worker is left writing into the plane.
func (s *FlushSlot) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	r := s.r
	for i, x := range xs {
		if err := r.checkInput(x); err != nil {
			return nil, fmt.Errorf("engine: batch input %d: %w", i, err)
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	od := r.model.OutputDim()
	if need := len(xs) * od; cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	if cap(s.rows) < len(xs) {
		s.rows = make([][]float64, len(xs))
	}
	rows := s.rows[:len(xs)]
	buf := s.buf[:len(xs)*od]
	for i := range rows {
		rows[i] = buf[i*od : (i+1)*od : (i+1)*od]
	}
	chunk := max((len(xs)+r.workers-1)/r.workers, 1)
	for start := 0; start < len(xs); start += chunk {
		end := min(start+chunk, len(xs))
		s.wg.Add(1)
		t := task{start: start, xs: xs[start:end], dst: buf[start*od : end*od], slot: s}
		if err := r.enqueue(ctx, t); err != nil {
			s.wg.Done()
			s.wg.Wait()
			s.err = nil // delivered chunks may have panicked; the ctx error wins
			return nil, err
		}
	}
	s.wg.Wait()
	// wg.Wait orders every chunkDone write before this read, and the slot
	// is single-owner, so the reset cannot race the slot's next batch.
	if err := s.err; err != nil {
		s.err = nil
		return nil, err
	}
	return rows, nil
}

// leased runs one batch the Runtime's one way: lease a plane, compute xs
// into it, hand its rows to use, release the plane.
func (r *Runtime) leased(ctx context.Context, xs [][]float64, use func(rows [][]float64)) error {
	s, err := r.AcquireFlushSlot(ctx)
	if err != nil {
		return err
	}
	defer s.Release()
	rows, err := s.InferBatch(ctx, xs)
	if err != nil {
		return err
	}
	use(rows)
	return nil
}

// InferBatch runs the batch through a leased plane and returns the
// logits in input order, copied into one caller-owned allocation before
// the plane is released. Concurrent calls each lease their own plane;
// beyond FlushPipelineDepth they wait for one. Cancellation and Close
// behave as in FlushSlot.InferBatch.
func (r *Runtime) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	var out [][]float64
	err := r.leased(ctx, xs, func(rows [][]float64) { out = CopyRows(rows) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CopyRows copies a leased plane's rows (all of one width) into one
// flat caller-owned allocation, so they outlive the plane's Release.
func CopyRows(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return [][]float64{}
	}
	od := len(rows[0])
	flat := make([]float64, len(rows)*od)
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = flat[i*od : (i+1)*od : (i+1)*od]
		copy(out[i], row)
	}
	return out
}

// PredictBatch runs the batch through a leased plane and returns the
// argmax classes in input order, reduced from the plane in place.
// Cancellation and Close behave as in InferBatch.
func (r *Runtime) PredictBatch(ctx context.Context, xs [][]float64) ([]int, error) {
	var classes []int
	err := r.leased(ctx, xs, func(rows [][]float64) {
		classes = make([]int, len(rows))
		for i, row := range rows {
			classes[i] = nn.Argmax(row)
		}
	})
	if err != nil {
		return nil, err
	}
	return classes, nil
}

// Accuracy evaluates classification accuracy over a dataset with the
// whole pool — the Runtime counterpart of Inferer.Accuracy. The count is
// exact, so the value is identical to a serial sweep; cancellation and
// Close behave as in PredictBatch.
func (r *Runtime) Accuracy(ctx context.Context, ds *datasets.Dataset) (float64, error) {
	classes, err := r.PredictBatch(ctx, ds.X)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, c := range classes {
		if c == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// Close stops accepting work and waits for every in-flight chunk to
// finish. It is idempotent and safe to call concurrently with
// InferBatch: late callers observe ErrClosed.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	// No producer can be mid-send here: sends happen under the read lock
	// with closed == false, and the write lock above waited them out.
	close(r.jobs)
	r.wg.Wait()
	return nil
}
