package main

// The four workloads. Each names the models it serves, its entry point
// (in-process registry calls or HTTP through the router to two
// replicas), its arrival process, and which per-layer metric should move
// which end-to-end metric on it.
//
// Only the open-loop workloads are scored in BENCHMARK.json. The two
// closed loops keep both CPUs busy with kernel and JSON work, and on a
// shared virtual machine that work runs up to 1.8× slower, CPU time
// included, while neighbours load the host (10-seed sets on one 2-vCPU
// host: offline-batch 362k against 641k samples/s, batch-http 64k
// against 97k), far past any bound a regression check could use. They
// stay runnable for back-to-back comparisons on one quiet host.

import "strconv"

// workload describes one traffic mix.
type workload struct {
	name   string
	why    string
	scored bool    // listed in BENCHMARK.json
	http   bool    // client → router → 2 replicas over loopback
	rate   float64 // open-loop arrivals per second; 0 = closed loop
	// traffic lists the models requests are spread over, in equal
	// shares. When swapTraffic is set, traffic[0] is the Iris model
	// being hot-swapped and its requests follow the current version.
	traffic     []modelRef
	swapTraffic bool
	// Closed loop: each caller cycles through cycles × traffic ×
	// batchSizes, with batchesPer(b) batches of size b so every size
	// carries equal samples.
	batchSizes []int
	cycles     int
	// predictions are the layer → end-to-end expectations on this
	// workload, printed with the traced run.
	predictions []string
}

// batchesPer returns how many batches of size b one cycle holds.
func (w *workload) batchesPer(b int) int {
	largest := 0
	for _, s := range w.batchSizes {
		largest = max(largest, s)
	}
	return largest / b
}

// swapVersions are the two Iris artifacts every workload alternates
// between every swapPeriod.
var swapVersions = [2]modelRef{{dsIris, armPosit80}, {dsIris, armPosit81}}

var workloads = []*workload{
	{
		name:        "trickle",
		scored:      true,
		why:         "lone requests at 200/s over HTTP through the router: batch-window wait dominates latency, the kernel is under 0.1%",
		http:        true,
		rate:        200,
		traffic:     []modelRef{{dsIris, armPosit80}, {dsWBC, armFloat84}, {dsMushroom, armFixed84}},
		swapTraffic: true,
		predictions: []string{
			"registry.queue_wait_ms_p50 -> lat_p50_ms (the window is ~99% of latency)",
			"router.self_us_p50, hop.us_p50 -> lat_p50_ms",
			"core.ns_per_sample.*.b1 -> lat_p50_ms only once flush-on-idle removes the window wait",
			"emac.* -> no change predicted",
		},
	},
	{
		name:        "burst",
		scored:      true,
		why:         "20k/s in-process singles fill 64-sample flushes: coalescing, flush-plane overlap, name table and store work, no JSON",
		rate:        20000,
		traffic:     []modelRef{{dsIris, armPosit80}, {dsWBC, armMixed}, {dsMushroom, armPosit161}},
		swapTraffic: true,
		predictions: []string{
			"registry.mean_flush must hold: falling flush size raises cpu_us_per_req (printed, not scored)",
			"engine.self_us_per_call.*, core.ns_per_sample.mixed.*, core.ns_per_sample.posit16_1.* -> cpu_us_per_req (printed, not scored)",
			"registry.load_ms_p50, registry.gc_ms_p50, artifact.parse_us_p50 -> swap_p10_ms and setup_s",
			"go.allocs_per_req, go.gc_pause_ms_total -> lat_p50_ms",
			"server.* -> no change predicted (no HTTP on this path)",
		},
	},
	{
		name:       "batch-http",
		why:        "2 closed-loop clients send 64-sample WBC JSON batches through the router: decode, encode and body buffering dominate",
		http:       true,
		traffic:    []modelRef{{dsWBC, armPosit80}},
		batchSizes: []int{64},
		cycles:     32,
		predictions: []string{
			"server.self_us_p50, server.req_bytes_mean, server.resp_bytes_mean -> samples_per_s",
			"router.self_us_p50 -> samples_per_s (full-body buffering)",
			"go.allocs_per_req, go.alloc_bytes_per_req -> samples_per_s",
			"registry.queue_wait_ms_p50, registry.mean_flush -> no change predicted (explicit batches bypass coalescing)",
		},
	},
	{
		name:       "offline-batch",
		why:        "2 in-process callers run InferBatch over five WBC arms at B=16 and B=256: the kernel tier does nearly all the work",
		traffic:    []modelRef{{dsWBC, armPosit80}, {dsWBC, armFloat84}, {dsWBC, armFixed84}, {dsWBC, armPosit161}, {dsWBC, armMixed}},
		batchSizes: []int{16, 256},
		cycles:     2,
		predictions: []string{
			"core.ns_per_sample.*.b256, emac.layer*.ns_per_sample.* -> samples_per_s",
			"engine.self_us_per_call.b16 -> samples_per_s (per-call overhead at B=16)",
			"router.*, server.*, registry.queue_wait_ms_p50 -> no change predicted (no HTTP, no window)",
		},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// swapName returns the serving name of swap number k (k = 0 is the
// version loaded at setup).
func swapName(k int) string { return "iris-v" + strconv.Itoa(k) }

// allRefs lists every model the workload needs prepared.
func (w *workload) allRefs() []modelRef {
	refs := append([]modelRef(nil), w.traffic...)
	return append(refs, swapVersions[0], swapVersions[1])
}
