package main

// Tracing for the per-layer ledger. Spans are recorded only here, in the
// benchmark's own code, around calls into the program's public functions
// and handlers; the spans of one request share its ID (carried over HTTP
// in the reqHeader header, which the router forwards to the replica).
// Spans are kept in memory and written out when the run ends.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the benchmark's request ID from client to replica.
const reqHeader = "X-Perfbench-Req"

// layer names the boundary a span was recorded at.
type layer uint8

const (
	lClient     layer = iota // the load generator's request, due → reply checked
	lRouter                  // Router.ServeHTTP
	lAttempt                 // one router → replica attempt, until its body is read
	lServer                  // replica Server.ServeHTTP
	lAcquire                 // Registry.Acquire
	lInfer                   // Handle.Infer
	lInferBatch              // Handle.InferBatch
	lLoad                    // Registry.LoadBytes
	lUnload                  // Registry.Unload
	lGC                      // Registry.GC
	numLayers
)

var layerNames = [numLayers]string{"client", "router", "attempt", "server", "acquire", "infer", "infer_batch", "load", "unload", "gc"}

// parentLayer gives each layer the layer its spans nest in (numLayers =
// a root). Self time subtracts only direct children.
var parentLayer = [numLayers]layer{
	lClient:     numLayers,
	lRouter:     lClient,
	lAttempt:    lRouter,
	lServer:     lAttempt,
	lAcquire:    lClient,
	lInfer:      lClient,
	lInferBatch: lClient,
	lLoad:       numLayers,
	lUnload:     numLayers,
	lGC:         numLayers,
}

// span is one timed interval, in nanoseconds since the tracer's base.
type span struct {
	id         uint64
	layer      layer
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans while on. A nil *tracer records nothing.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// record stores one span when tracing is on.
func (t *tracer) record(id uint64, l layer, start, end time.Time) {
	if !t.active() {
		return
	}
	s := span{id: id, layer: l, start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as tab-separated lines: id, layer, start ns,
// end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\n", s.id, layerNames[s.layer], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the self time of every span: its
// duration minus the part of its interval that its direct children (the
// same request's spans of the child layer) cover. Overlapping children,
// such as a hedge racing its primary, are counted once.
func selfTimes(spans []span) [numLayers][]int64 {
	byID := make(map[uint64][]span)
	for _, s := range spans {
		byID[s.id] = append(byID[s.id], s)
	}
	var out [numLayers][]int64
	for _, group := range byID {
		for _, s := range group {
			var kids [][2]int64
			for _, c := range group {
				if parentLayer[c.layer] == s.layer && c.layer != s.layer {
					lo, hi := max(c.start, s.start), min(c.end, s.end)
					if hi > lo {
						kids = append(kids, [2]int64{lo, hi})
					}
				}
			}
			out[s.layer] = append(out[s.layer], s.dur()-covered(kids))
		}
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// pairDiffs returns, for every request ID holding exactly one span of
// each layer, parent duration minus child duration (such as attempt −
// server = the loopback hop).
func pairDiffs(spans []span, parent, child layer) []int64 {
	type pair struct {
		p, c   int64
		np, nc int
	}
	m := make(map[uint64]*pair)
	for _, s := range spans {
		if s.layer != parent && s.layer != child {
			continue
		}
		q := m[s.id]
		if q == nil {
			q = &pair{}
			m[s.id] = q
		}
		if s.layer == parent {
			q.p, q.np = s.dur(), q.np+1
		} else {
			q.c, q.nc = s.dur(), q.nc+1
		}
	}
	var out []int64
	for _, q := range m {
		if q.np == 1 && q.nc == 1 {
			out = append(out, q.p-q.c)
		}
	}
	return out
}

// durations returns the durations of one layer's spans.
func durations(spans []span, l layer) []int64 {
	var out []int64
	for _, s := range spans {
		if s.layer == l {
			out = append(out, s.dur())
		}
	}
	return out
}

// reqID reads the benchmark request ID from a header (0 when absent).
func reqID(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(reqHeader), 10, 64)
	return id
}

// tracedHandler wraps an http.Handler, recording a span per benchmark
// request and counting its request and response bytes while tracing is
// on. Requests without an ID, such as the router's health probes, pass
// through untraced.
type tracedHandler struct {
	next                      http.Handler
	tr                        *tracer
	layer                     layer
	reqs, reqBytes, respBytes atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := reqID(r.Header)
	if id == 0 || !h.tr.active() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.tr.record(id, h.layer, start, time.Now())
	h.reqs.Add(1)
	h.reqBytes.Add(max(r.ContentLength, 0))
	h.respBytes.Add(cw.n)
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// tracedTransport wraps the router's upstream transport: one attempt
// span per benchmark round trip, ended when the response body has been
// read, and a per-(model, replica) attempt count for the affinity share.
// Health probes pass through untraced.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer

	mu       sync.Mutex
	attempts map[[2]string]int64 // (model path, replica host) → attempts
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := reqID(req.Header)
	if id == 0 || !t.tr.active() {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	t.mu.Lock()
	t.attempts[[2]string{req.URL.Path, req.URL.Host}]++
	t.mu.Unlock()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.record(id, lAttempt, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.record(id, lAttempt, start, time.Now()) }}
	return resp, nil
}

// affinityShare is the share of attempts, summed over models, that went
// to the replica serving most of that model's attempts.
func (t *tracedTransport) affinityShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	best := make(map[string]int64)
	var total int64
	for k, n := range t.attempts {
		best[k[0]] = max(best[k[0]], n)
		total += n
	}
	var top int64
	for _, n := range best {
		top += n
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// spanBody ends an attempt span the first time its body reaches EOF or
// is closed.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}
