package main

// The system under test, built the way positrond builds it with its
// shipped defaults: registries with a 2 ms window, max batch 64, flush
// pipeline 2, warm tables, GOMAXPROCS workers and the in-memory store;
// for HTTP workloads two replica servers over loopback behind a router
// with its own defaults (no hedging). The calls here are the workload's
// entry points: Acquire → Infer/InferBatch → Release in process, or a
// JSON POST through the router.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/server"
)

// requestTimeout bounds one request; a request that hits it has failed.
const requestTimeout = 5 * time.Second

// errMismatch marks a reply whose logits or class differ from the
// reference.
var errMismatch = errors.New("reply differs from the reference")

// statusError is an HTTP reply other than 200.
type statusError int

func (e statusError) Error() string { return "HTTP " + strconv.Itoa(int(e)) }

// registryOptions are positrond's defaults.
func registryOptions() []registry.Option {
	return []registry.Option{
		registry.WithRuntimeOptions(
			engine.WithWorkers(0),
			engine.WithQueueDepth(0),
			engine.WithWarmTables(),
		),
		registry.WithBatchWindow(registry.DefaultBatchWindow),
		registry.WithMaxBatch(registry.DefaultMaxBatch),
		registry.WithFlushPipeline(registry.DefaultFlushPipeline),
		registry.WithMaxInFlight(0),
		registry.WithRequestTimeout(0),
	}
}

// artifactFile is one artifact written to disk for LoadPath, and the
// model it holds.
type artifactFile struct {
	name, path string
	p          *prepared
}

// system is one running instance of the stack.
type system struct {
	http bool
	tr   *tracer
	regs []*registry.Registry

	servers   []*http.Server
	serving   sync.WaitGroup
	replicaHs []*tracedHandler
	rt        *router.Router
	routerURL string
	upstream  *tracedTransport
	client    *http.Client // at most maxCallers connections
}

// readyWatch closes ready once the replica has answered a router probe
// of /readyz.
type readyWatch struct {
	next  http.Handler
	ready chan struct{}
	once  sync.Once
}

func (h *readyWatch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.next.ServeHTTP(w, r)
	if r.URL.Path == "/readyz" {
		h.once.Do(func() { close(h.ready) })
	}
}

// startSystem builds the stack and loads every artifact by path. It
// returns once the router has probed every replica; the caller then
// waits for each model's first correct reply.
func startSystem(httpMode bool, tr *tracer, files []artifactFile, callers int) (*system, error) {
	s := &system{http: httpMode, tr: tr}
	n := 1
	if httpMode {
		n = 2
	}
	for i := 0; i < n; i++ {
		reg := registry.New(registryOptions()...)
		s.regs = append(s.regs, reg)
		for _, f := range files {
			if err := reg.LoadPath(f.name, f.path); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	if !httpMode {
		return s, nil
	}

	var addrs []string
	var ready []chan struct{}
	for _, reg := range s.regs {
		h := &tracedHandler{next: server.New(reg, ""), tr: tr, layer: lServer}
		rw := &readyWatch{next: h, ready: make(chan struct{})}
		addr, err := s.serve(rw)
		if err != nil {
			s.close()
			return nil, err
		}
		s.replicaHs = append(s.replicaHs, h)
		addrs = append(addrs, addr)
		ready = append(ready, rw.ready)
	}
	var opts []router.Option
	if tr != nil {
		s.upstream = &tracedTransport{
			next: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxIdleConnsPerHost: 32,
			},
			tr:       tr,
			attempts: make(map[[2]string]int64),
		}
		opts = append(opts, router.WithTransport(s.upstream))
	}
	rt, err := router.New(addrs, opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.rt = rt
	addr, err := s.serve(&tracedHandler{next: rt, tr: tr, layer: lRouter})
	if err != nil {
		s.close()
		return nil, err
	}
	s.routerURL = "http://" + addr
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers},
		Timeout:   requestTimeout,
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for _, ch := range ready {
		select {
		case <-ch:
		case <-timeout.C:
			s.close()
			return nil, errors.New("router never probed every replica")
		}
	}
	return s, nil
}

// serve starts an HTTP server for h on a loopback port, with positrond's
// timeouts, and returns its address.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

// close stops every server, the router and the registries, and waits
// for the serving goroutines to exit.
func (s *system) close() {
	for _, srv := range s.servers {
		_ = srv.Close() // Serve's goroutine reports the outcome
	}
	s.serving.Wait()
	if s.rt != nil {
		s.rt.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for _, reg := range s.regs {
		_ = reg.Close() // every model drains; nothing is left to report
	}
}

// load registers an artifact under name on every registry.
func (s *system) load(name string, data []byte) error {
	for _, reg := range s.regs {
		start := time.Now()
		err := reg.LoadBytes(name, data)
		s.tr.record(0, lLoad, start, time.Now())
		if err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
	}
	return nil
}

// unload removes name from every registry and sweeps the stores.
func (s *system) unload(name string) error {
	for _, reg := range s.regs {
		start := time.Now()
		err := reg.Unload(name)
		mid := time.Now()
		s.tr.record(0, lUnload, start, mid)
		if err != nil {
			return fmt.Errorf("unloading %s: %w", name, err)
		}
		_, _, err = reg.GC()
		s.tr.record(0, lGC, mid, time.Now())
		if err != nil {
			return fmt.Errorf("store GC: %w", err)
		}
	}
	return nil
}

// call is one request through the workload's entry point.
type call struct {
	id     uint64
	name   string
	xs     [][]float64 // in-process inputs
	body   []byte      // HTTP body
	single bool        // one sample through the micro-batcher
}

// reply is what came back.
type reply struct {
	logits   [][]float64
	classes  []int // HTTP only
	connWait time.Duration
}

// do sends one call.
func (s *system) do(ctx context.Context, c call) (reply, error) {
	if s.http {
		return s.doHTTP(ctx, c)
	}
	return s.doLocal(ctx, s.regs[0], c)
}

// doLocal sends one call to reg in process.
func (s *system) doLocal(ctx context.Context, reg *registry.Registry, c call) (reply, error) {
	t0 := time.Now()
	h, err := reg.Acquire(c.name)
	t1 := time.Now()
	s.tr.record(c.id, lAcquire, t0, t1)
	if err != nil {
		return reply{}, err
	}
	defer h.Release()
	var out [][]float64
	if c.single {
		var one []float64
		one, err = h.Infer(ctx, c.xs[0])
		s.tr.record(c.id, lInfer, t1, time.Now())
		out = [][]float64{one}
	} else {
		out, err = h.InferBatch(ctx, c.xs)
		s.tr.record(c.id, lInferBatch, t1, time.Now())
	}
	if err != nil {
		return reply{}, err
	}
	return reply{logits: out}, nil
}

// inferReply is the server's inference response body.
type inferReply struct {
	Result  *prediction  `json:"result"`
	Results []prediction `json:"results"`
}

type prediction struct {
	Logits []float64 `json:"logits"`
	Class  int       `json:"class"`
}

func (s *system) doHTTP(ctx context.Context, c call) (reply, error) {
	var rep reply
	var getConn time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { rep.connWait = time.Since(getConn) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.routerURL+"/v1/models/"+c.name+"/infer", bytes.NewReader(c.body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.tr.active() {
		req.Header.Set(reqHeader, strconv.FormatUint(c.id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, statusError(resp.StatusCode)
	}
	var ir inferReply
	if err := json.Unmarshal(body, &ir); err != nil {
		return rep, fmt.Errorf("decoding reply: %w", err)
	}
	preds := ir.Results
	if c.single {
		if ir.Result == nil {
			return rep, errors.New("reply has no result")
		}
		preds = []prediction{*ir.Result}
	}
	for _, p := range preds {
		rep.logits = append(rep.logits, p.Logits)
		rep.classes = append(rep.classes, p.Class)
	}
	return rep, nil
}

// encodeBody renders an inference request body.
func encodeBody(xs [][]float64, single bool) []byte {
	var v any = map[string][][]float64{"inputs": xs}
	if single {
		v = map[string][]float64{"input": xs[0]}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // finite float64 slices always encode
	}
	return b
}
