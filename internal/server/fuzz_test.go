package server

// Fuzz targets for the two request bodies a client controls: the infer
// body and the model-load body. Each input is served through the real
// handler (Server.ServeHTTP via httptest), and the contract on arbitrary
// bytes is:
//   - no panic (the recovery middleware would mask one, so its counter
//     must stay at zero);
//   - never a 200 with an empty body;
//   - every non-2xx response carries the errorJSON envelope.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/rng"
)

// fuzzSeeds returns the shared seed corpus: a load body carrying a NaR
// artifact, an empty body, an infer body of the wrong width, and a body
// one byte over the infer limit.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	net := core.Quantize(nn.NewMLP([]int{4, 6, 3}, rng.New(3)), emac.NewPosit(8, 0))
	net.Layers[0].W[0][0] = emac.Code(1 << 7) // posit(8,0) NaR
	art, err := json.Marshal(net)
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		[]byte(`{"name":"nar","artifact":` + string(art) + `}`),
		nil,
		[]byte(`{"input":[1,2,3]}`),
		bytes.Repeat([]byte(" "), MaxBodyBytes+1),
	}
}

// newFuzzServer serves one small posit(8,0) model as "m" (also the
// default model) without coalescing, so every input is one direct call.
func newFuzzServer(f *testing.F) (*Server, *registry.Registry) {
	f.Helper()
	reg := registry.New(registry.WithBatchWindow(0))
	net := core.Quantize(nn.NewMLP([]int{4, 6, 3}, rng.New(4)), emac.NewPosit(8, 0))
	if err := reg.Load("m", net); err != nil {
		f.Fatal(err)
	}
	s := New(reg, "m")
	f.Cleanup(func() { s.Close() })
	return s, reg
}

// serveChecked runs one request through the handler and enforces the
// fuzz contract on the response.
func serveChecked(t *testing.T, s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if n := s.panics.Load(); n != 0 {
		t.Fatalf("%s %s: handler panicked (%d recovered) on %q", method, path, n, body)
	}
	switch {
	case rec.Code == http.StatusOK && rec.Body.Len() == 0:
		t.Fatalf("%s %s: 200 with an empty body on %q", method, path, body)
	case rec.Code < 200 || rec.Code > 299:
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s %s: %d body %q is not the error envelope (%v) on %q",
				method, path, rec.Code, rec.Body.Bytes(), err, body)
		}
	}
	return rec
}

func FuzzInferBody(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"input":[5.1,3.5,1.4,0.2]}`))
	f.Add([]byte(`{"inputs":[[5.1,3.5,1.4,0.2],[1e308,-1e308,0,-0]]}`))
	s, _ := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		serveChecked(t, s, http.MethodPost, "/v1/models/m/infer", body)
	})
}

func FuzzLoadBody(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	art, err := json.Marshal(core.Quantize(nn.NewMLP([]int{2, 2}, rng.New(5)), emac.NewFixed(8, 4)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"name":"ok","artifact":` + string(art) + `}`))
	f.Add([]byte(`{"name":"p","path":"../../etc/passwd"}`))
	f.Add([]byte(`{"name":"h","hash":"00"}`))
	s, reg := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveChecked(t, s, http.MethodPost, "/v1/models", body)
		if rec.Code != http.StatusCreated {
			return
		}
		// Keep the table and the store at the one fixed model between
		// inputs.
		var stat struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stat); err != nil || stat.Name == "" {
			t.Fatalf("201 body %q has no model name (%v)", rec.Body.Bytes(), err)
		}
		if err := reg.Unload(stat.Name); err != nil {
			t.Fatalf("unload %q: %v", stat.Name, err)
		}
		if _, _, err := reg.GC(); err != nil {
			t.Fatal(err)
		}
	})
}
