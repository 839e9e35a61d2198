package main

// The traced phase: the same schedule again with spans recorded, the
// program's counters read around it, and the kernel tier replayed.

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = func() []metricDef {
	l := []metricDef{
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.conn_wait_p50_ms", "ms"},
		{"loadgen.conn_wait_p99_ms", "ms"},
		{"loadgen.error_rate", "ratio"},
		{"router.self_us_p50", "us"},
		{"router.self_us_p99", "us"},
		{"router.attempts_per_req", "ratio"},
		{"router.retries", "count"},
		{"router.affinity_share", "ratio"},
		{"hop.us_p50", "us"},
		{"server.handler_us_p50", "us"},
		{"server.handler_us_p99", "us"},
		{"server.self_us_p50", "us"},
		{"server.req_bytes_mean", "bytes"},
		{"server.resp_bytes_mean", "bytes"},
		{"registry.queue_wait_ms_p50", "ms"},
		{"registry.queue_wait_ms_p99", "ms"},
		{"registry.compute_ms_p50", "ms"},
		{"registry.compute_ms_p99", "ms"},
		{"registry.mean_flush", "samples"},
		{"registry.coalesced_share", "ratio"},
		{"registry.max_coalesced", "samples"},
		{"registry.max_pipeline_depth", "slots"},
		{"registry.rejected", "count"},
		{"registry.timed_out", "count"},
		{"registry.acquire_us_p99", "us"},
		{"registry.load_ms_p50", "ms"},
		{"registry.unload_ms_p50", "ms"},
		{"registry.gc_ms_p50", "ms"},
		{"engine.slots_in_use_mean", "slots"},
		{"engine.queue_len_mean", "jobs"},
		{"engine.self_us_per_call.b16", "us"},
		{"engine.self_us_per_call.b256", "us"},
		{"engine.panics", "count"},
	}
	for _, a := range ledgerArms {
		for _, b := range []int{1, 16, 256} {
			l = append(l, metricDef{fmt.Sprintf("core.ns_per_sample.%s.b%d", a.key, b), "ns"})
		}
	}
	for li := 0; li < 3; li++ {
		for _, a := range ledgerArms[:4] {
			l = append(l, metricDef{fmt.Sprintf("emac.layer%d.ns_per_sample.%s", li, a.key), "ns"})
		}
	}
	for li := 0; li < 3; li++ {
		l = append(l, metricDef{fmt.Sprintf("emac.layer%d.cycles", li), "cycles"})
	}
	l = append(l, metricDef{"emac.macs_per_sample", "MACs"})
	for _, a := range ledgerArms[:4] {
		l = append(l, metricDef{"emac.weight_bytes." + a.key, "bytes"})
	}
	return append(l, []metricDef{
		{"artifact.parse_us_p50", "us"},
		{"store.puts", "count"},
		{"store.put_dedups", "count"},
		{"store.gc_freed_bytes", "bytes"},
		{"store.objects_end", "count"},
		{"go.allocs_per_req", "count"},
		{"go.alloc_bytes_per_req", "bytes"},
		{"go.gc_pause_ms_total", "ms"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// tracedPhase runs the schedule with tracing on, writes the spans to
// spansPath and fills m with the per-layer ledger. a is the untraced
// phase that preceded it.
func (r *runner) tracedPhase(d time.Duration, m *metricSet, a *phaseStats, spansPath string) (*phaseStats, error) {
	sys := r.sys
	l := newRegLedger(sys)
	var retries0 int64
	if sys.rt != nil {
		retries0 = sys.rt.Metrics().Router.Retries
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		l.sample(sys, stop)
	}()
	r.ledger = l
	r.tr.on.Store(true)
	b := r.runPhase(d)
	r.tr.on.Store(false)
	r.ledger = nil
	close(stop)
	<-sampled
	l.finish(sys)
	spans := r.tr.take()
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}

	n := func(xs []float64) int64 { return int64(len(xs)) }
	m.add("loadgen.lag_p99_ms", percentile(b.lags, 99), "ms", n(b.lags))
	m.add("loadgen.conn_wait_p50_ms", percentile(b.connWaits, 50), "ms", n(b.connWaits))
	m.add("loadgen.conn_wait_p99_ms", percentile(b.connWaits, 99), "ms", n(b.connWaits))

	self := selfTimes(spans)
	routerSelf := scaled(self[lRouter], 1e3)
	m.add("router.self_us_p50", percentile(routerSelf, 50), "us", n(routerSelf))
	m.add("router.self_us_p99", percentile(routerSelf, 99), "us", n(routerSelf))
	nRouter, nAttempt := int64(len(self[lRouter])), int64(len(self[lAttempt]))
	m.add("router.attempts_per_req", ratio(nAttempt, nRouter), "ratio", nRouter)
	var retries int64
	affinity := 0.0
	if sys.rt != nil {
		retries = sys.rt.Metrics().Router.Retries - retries0
		affinity = sys.upstream.affinityShare()
	}
	m.add("router.retries", float64(retries), "count", nRouter)
	m.add("router.affinity_share", affinity, "ratio", nAttempt)
	hop := scaled(pairDiffs(spans, lAttempt, lServer), 1e3)
	m.add("hop.us_p50", median(hop), "us", n(hop))

	handler := scaled(durations(spans, lServer), 1e3)
	m.add("server.handler_us_p50", percentile(handler, 50), "us", n(handler))
	m.add("server.handler_us_p99", percentile(handler, 99), "us", n(handler))
	regLat := l.registryMetrics(m)
	serverSelf := 0.0
	if len(handler) > 0 {
		serverSelf = percentile(handler, 50) - regLat*1e3
	}
	m.add("server.self_us_p50", serverSelf, "us", n(handler))
	var reqs, reqBytes, respBytes int64
	for _, h := range sys.replicaHs {
		reqs += h.reqs.Load()
		reqBytes += h.reqBytes.Load()
		respBytes += h.respBytes.Load()
	}
	m.add("server.req_bytes_mean", ratio(reqBytes, reqs), "bytes", reqs)
	m.add("server.resp_bytes_mean", ratio(respBytes, reqs), "bytes", reqs)

	acq := scaled(durations(spans, lAcquire), 1e3)
	m.add("registry.acquire_us_p99", percentile(acq, 99), "us", n(acq))
	for _, x := range []struct {
		name string
		l    layer
	}{{"registry.load_ms_p50", lLoad}, {"registry.unload_ms_p50", lUnload}, {"registry.gc_ms_p50", lGC}} {
		ds := scaled(durations(spans, x.l), 1e6)
		m.add(x.name, median(ds), "ms", n(ds))
	}

	// The kernel replays need both CPUs: collect the spans (dead from
	// here on) first, so no background mark work overlaps the timing.
	runtime.GC()
	var arms []*prepared
	for _, a := range ledgerArms {
		arms = append(arms, r.models[modelRef{dsWBC, a}.key()])
	}
	if err := kernelLedger(arms, r.models, m); err != nil {
		return nil, fmt.Errorf("kernel ledger: %w", err)
	}
	if objects, live := l.storeMetrics(sys, m); objects != live {
		fmt.Fprintf(os.Stderr, "perfbench: store holds %d objects for %d live models\n", objects, live)
	}

	perReq := float64(max(a.requests(), 1))
	m.add("go.allocs_per_req", float64(a.mallocs)/perReq, "count", a.requests())
	m.add("go.alloc_bytes_per_req", float64(a.allocB)/perReq, "bytes", a.requests())
	m.add("go.gc_pause_ms_total", float64(a.gcPauseNs)/1e6, "ms", 1)

	var overhead float64
	if r.w.rate > 0 {
		pa := median(a.lat)
		overhead = (median(b.lat) - pa) / pa * 100
	} else {
		ra, rb := float64(a.samples)/a.wall.Seconds(), float64(b.samples)/b.wall.Seconds()
		overhead = (ra - rb) / ra * 100
	}
	m.add("trace.overhead_pct", overhead, "%", n(b.lat))
	return b, nil
}
