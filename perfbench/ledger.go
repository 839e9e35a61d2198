package main

// The per-layer ledger of a traced run: the program's own public
// counters (registry metrics snapshots, runtime gauges, store stats)
// read around the traced phase, and the kernel tier replayed on private
// sessions and layer kernels.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/hw"
	"repro/internal/registry"
)

// modelSnap is one served model's counters at one moment.
type modelSnap struct {
	s      registry.Snapshot
	panics int64
}

// snapshot reads a model's metrics and runtime panic count.
func snapshot(reg *registry.Registry, name string) (modelSnap, bool) {
	h, err := reg.Acquire(name)
	if err != nil {
		return modelSnap{}, false
	}
	defer h.Release()
	return modelSnap{s: h.Metrics().Snapshot(), panics: h.Runtime().Panics()}, true
}

// regLedger pairs each model's counters at the start of the traced
// phase (zero for models loaded during it) with their values when the
// model is unloaded or the phase ends, and samples the runtime gauges.
type regLedger struct {
	mu     sync.Mutex
	base   map[string]modelSnap
	deltas [][2]modelSnap

	slots, queue []float64
	store0       []storeCounters
}

type storeCounters struct{ puts, dedups, freed int64 }

func snapKey(reg int, name string) string { return strconv.Itoa(reg) + "/" + name }

func newRegLedger(sys *system) *regLedger {
	l := &regLedger{base: make(map[string]modelSnap)}
	for i, reg := range sys.regs {
		for _, name := range reg.Names() {
			if s, ok := snapshot(reg, name); ok {
				l.base[snapKey(i, name)] = s
			}
		}
		st := reg.StoreStats()
		l.store0 = append(l.store0, storeCounters{st.Puts, st.PutDedups, st.GCFreedBytes})
	}
	return l
}

// final records name's closing counters on every registry.
func (l *regLedger) final(sys *system, name string) {
	for i, reg := range sys.regs {
		s, ok := snapshot(reg, name)
		if !ok {
			continue
		}
		l.mu.Lock()
		k := snapKey(i, name)
		l.deltas = append(l.deltas, [2]modelSnap{l.base[k], s})
		delete(l.base, k)
		l.mu.Unlock()
	}
}

// finish records the closing counters of every model still loaded.
func (l *regLedger) finish(sys *system) {
	for _, name := range sys.regs[0].Names() {
		l.final(sys, name)
	}
}

// sample reads every loaded model's leased flush slots and job-queue
// length once a millisecond until stop closes.
func (l *regLedger) sample(sys *system, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var slots, queue int
		for _, reg := range sys.regs {
			for _, name := range reg.Names() {
				h, err := reg.Acquire(name)
				if err != nil {
					continue // unloaded since Names
				}
				slots += h.Runtime().FlushSlotsInUse()
				queue += h.Runtime().QueueLen()
				h.Release()
			}
		}
		l.slots = append(l.slots, float64(slots))
		l.queue = append(l.queue, float64(queue))
	}
}

// registryMetrics summarises the deltas. Ring percentiles are averaged
// across models weighted by the samples each served in the phase.
func (l *regLedger) registryMetrics(m *metricSet) (regLatP50Ms float64) {
	var req, batches, coal, rejected, timedOut, panics int64
	var maxCoal, maxPipe int
	var qw50, qw99, c50, c99, lat50, weight float64
	for _, d := range l.deltas {
		b, e := d[0].s, d[1].s
		n := e.Requests - b.Requests
		req += n
		batches += e.Batches - b.Batches
		coal += e.CoalescedBatches - b.CoalescedBatches
		rejected += e.Rejected - b.Rejected
		timedOut += e.TimedOut - b.TimedOut
		panics += d[1].panics - d[0].panics
		maxCoal = max(maxCoal, e.MaxCoalesced)
		maxPipe = max(maxPipe, e.MaxPipelineDepth)
		w := float64(n)
		qw50 += w * e.QueueWaitP50Ms
		qw99 += w * e.QueueWaitP99Ms
		c50 += w * e.ComputeP50Ms
		c99 += w * e.ComputeP99Ms
		lat50 += w * e.P50Ms
		weight += w
	}
	if weight > 0 {
		qw50, qw99, c50, c99, lat50 = qw50/weight, qw99/weight, c50/weight, c99/weight, lat50/weight
	}
	m.add("registry.queue_wait_ms_p50", qw50, "ms", req)
	m.add("registry.queue_wait_ms_p99", qw99, "ms", req)
	m.add("registry.compute_ms_p50", c50, "ms", batches)
	m.add("registry.compute_ms_p99", c99, "ms", batches)
	m.add("registry.mean_flush", ratio(req, batches), "samples", batches)
	m.add("registry.coalesced_share", ratio(coal, batches), "ratio", batches)
	m.add("registry.max_coalesced", float64(maxCoal), "samples", batches)
	m.add("registry.max_pipeline_depth", float64(maxPipe), "slots", batches)
	m.add("registry.rejected", float64(rejected), "count", req)
	m.add("registry.timed_out", float64(timedOut), "count", req)
	m.add("engine.slots_in_use_mean", mean(l.slots), "slots", int64(len(l.slots)))
	m.add("engine.queue_len_mean", mean(l.queue), "jobs", int64(len(l.queue)))
	m.add("engine.panics", float64(panics), "count", batches)
	return lat50
}

// storeMetrics reports the store counters' change over the phase and
// the objects left once the run's last sweep is done.
func (l *regLedger) storeMetrics(sys *system, m *metricSet) (objects, live int) {
	var puts, dedups, freed int64
	for i, reg := range sys.regs {
		st := reg.StoreStats()
		puts += st.Puts - l.store0[i].puts
		dedups += st.PutDedups - l.store0[i].dedups
		freed += st.GCFreedBytes - l.store0[i].freed
		objects += int(st.Objects)
		live += len(reg.Names())
	}
	m.add("store.puts", float64(puts), "count", 1)
	m.add("store.put_dedups", float64(dedups), "count", 1)
	m.add("store.gc_freed_bytes", float64(freed), "bytes", 1)
	m.add("store.objects_end", float64(objects), "count", 1)
	return objects, live
}

// replayReps is the number of timed repetitions of each kernel replay;
// the median is reported.
const replayReps = 5

// timeIt runs f reps times and returns the median duration of one call.
func timeIt(reps int, f func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2]
}

// batchOf returns b rows of p, cycling through its pool from offset.
func batchOf(p *prepared, b, offset int) [][]float64 {
	xs := make([][]float64, b)
	for i := range xs {
		xs[i] = p.rows[(offset+i)%len(p.rows)]
	}
	return xs
}

// kernelLedger replays the WBC arms through private Inferers (core),
// single layer kernels (emac) and a registry handle (engine per-call
// overhead over core), and times artifact parsing.
func kernelLedger(arms []*prepared, all map[string]*prepared, m *metricSet) error {
	served := make([]core.Model, len(arms))
	for i, p := range arms {
		mdl, err := artifact.Parse(p.bytes)
		if err != nil {
			return err
		}
		served[i] = mdl
	}

	// core: whole-network batched inference on a private session.
	for i, p := range arms {
		inf := served[i].NewInferer()
		for _, b := range []int{1, 16, 256} {
			xs := batchOf(p, b, 0)
			dst := make([]float64, b*served[i].OutputDim())
			inf.InferBatchInto(dst, xs)
			per := max(1, 4096/b)
			d := timeIt(replayReps, func() {
				for k := 0; k < per; k++ {
					inf.InferBatchInto(dst, xs)
				}
			})
			m.add(fmt.Sprintf("core.ns_per_sample.%s.b%d", p.ref.arm.key, b),
				float64(d.Nanoseconds())/float64(per*b), "ns", int64(replayReps*per*b))
		}
	}

	// emac: each layer's batch kernel at B=256 on the reference's own
	// layer inputs, for the uniform arms.
	const b = 256
	layers := layerParams(arms[0].model)
	for li, l := range layers {
		m.add(fmt.Sprintf("emac.layer%d.cycles", li), float64(l.In+hw.PipelineDepth), "cycles", 1)
	}
	macs, params := 0, 0
	for _, l := range layers {
		macs += l.In * l.Out
		params += l.In*l.Out + l.Out
	}
	m.add("emac.macs_per_sample", float64(macs), "MACs", 1)
	for _, p := range arms {
		net, ok := p.model.(*core.Network)
		if !ok {
			continue
		}
		m.add("emac.weight_bytes."+p.ref.arm.key, float64(params*int(net.Arith.BitWidth())/8), "bytes", 1)
		kb, ok := net.Arith.(emac.BatchKernelBuilder)
		if !ok {
			return fmt.Errorf("arm %s has no batch kernel", p.ref.arm.key)
		}
		for li, l := range net.Layers {
			k, ok := kb.NewBatchLayerKernel(l.W, l.B)
			if !ok {
				return fmt.Errorf("arm %s layer %d has no batch kernel", p.ref.arm.key, li)
			}
			act := make([]emac.Code, 0, b*l.In)
			for s := 0; s < b; s++ {
				act = append(act, p.acts[s%len(p.acts)][li]...)
			}
			out := make([]emac.Code, b*l.Out)
			k.ForwardBatchStrided(act, out, b)
			const per = 16
			d := timeIt(replayReps, func() {
				for k2 := 0; k2 < per; k2++ {
					k.ForwardBatchStrided(act, out, b)
				}
			})
			m.add(fmt.Sprintf("emac.layer%d.ns_per_sample.%s", li, p.ref.arm.key),
				float64(d.Nanoseconds())/float64(per*b), "ns", int64(replayReps*per*b))
		}
	}

	// engine: Handle.InferBatch on a registry with positrond's defaults,
	// minus the critical path of the same batch replayed on a private
	// session: the runtime splits a batch into one chunk of ceil(B/W)
	// samples per worker, so that is one chunk.
	reg := registry.New(registryOptions()...)
	defer reg.Close()
	for _, p := range arms {
		if err := reg.LoadBytes(p.ref.key(), p.bytes); err != nil {
			return err
		}
	}
	workers := runtime.GOMAXPROCS(0)
	for _, b := range []int{16, 256} {
		chunk := (b + workers - 1) / workers
		var self []float64
		for i, p := range arms {
			h, err := reg.Acquire(p.ref.key())
			if err != nil {
				return err
			}
			inf := served[i].NewInferer()
			dst := make([]float64, chunk*served[i].OutputDim())
			for k := 0; k < 24; k++ {
				xs := batchOf(p, b, k*b)
				start := time.Now()
				_, err := h.InferBatch(context.Background(), xs)
				call := time.Since(start)
				if err != nil {
					h.Release()
					return err
				}
				start = time.Now()
				inf.InferBatchInto(dst, xs[:chunk])
				replay := time.Since(start)
				if k >= 4 { // the first calls warm both sides
					self = append(self, float64(call-replay)/float64(time.Microsecond))
				}
			}
			h.Release()
		}
		m.add(fmt.Sprintf("engine.self_us_per_call.b%d", b), median(self), "us", int64(len(self)))
	}

	// artifact: parse time of every artifact the run serves.
	var parse []float64
	for _, p := range all {
		for k := 0; k < 50; k++ {
			start := time.Now()
			if _, err := artifact.Parse(p.bytes); err != nil {
				return err
			}
			parse = append(parse, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	m.add("artifact.parse_us_p50", median(parse), "us", int64(len(parse)))
	return nil
}
