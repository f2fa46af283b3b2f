package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postOptimize(t *testing.T, url string, req Request) (Response, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer httpResp.Body.Close()
	var resp Response
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, httpResp
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, httpResp := postOptimize(t, ts.URL, Request{Program: "bcast ; scan(+) ; scan(+)", M: 16})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", httpResp.StatusCode)
	}
	if resp.Canonical != "bcast ; scan(+) ; scan(+)" {
		t.Errorf("canonical = %q", resp.Canonical)
	}
	if len(resp.Applications) == 0 || !strings.Contains(resp.Applications[0], "BSS-Comcast") {
		t.Errorf("applications = %v, want BSS-Comcast", resp.Applications)
	}
	if resp.CostAfter >= resp.CostBefore {
		t.Errorf("cost did not improve: %g -> %g", resp.CostBefore, resp.CostAfter)
	}
	if !resp.Verified {
		t.Error("plan not verified")
	}
	if resp.Cached {
		t.Error("first request must be a miss")
	}

	// The same program (any spelling) is now a cache hit.
	again, _ := postOptimize(t, ts.URL, Request{Program: "bcast;scan( + );scan(+) # same", M: 16})
	if !again.Cached {
		t.Error("repeat request must hit the cache")
	}
	if again.Optimized != resp.Optimized {
		t.Errorf("cache returned a different plan: %q vs %q", again.Optimized, resp.Optimized)
	}
}

func TestOptimizeErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		do   func() *http.Response
		code int
	}{
		{"parse error", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "scan(???)"})
			return r
		}, http.StatusBadRequest},
		{"empty program", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "   "})
			return r
		}, http.StatusBadRequest},
		{"bad machine", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "scan(+)", P: -3})
			return r
		}, http.StatusBadRequest},
		{"bad body", func() *http.Response {
			r, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusBadRequest},
		{"bad method", func() *http.Response {
			r, err := http.Get(ts.URL + "/optimize")
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		r := c.do()
		r.Body.Close()
		if r.StatusCode != c.code {
			t.Errorf("%s: HTTP %d, want %d", c.name, r.StatusCode, c.code)
		}
	}
	if errs := s.Metrics().Errors; errs != uint64(len(cases)) {
		t.Errorf("error counter = %d, want %d", errs, len(cases))
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postOptimize(t, ts.URL, Request{Program: "scan(*) ; scan(+)", M: 8})
	postOptimize(t, ts.URL, Request{Program: "scan(*) ; scan(+)", M: 8})

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests < 3 || snap.Optimized != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", snap.Cache)
	}
	if snap.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1", snap.EngineRuns)
	}
}

// TestServerSingleFlightUnderLoad drives 128 concurrent HTTP clients
// over a small program set and asserts the engine ran exactly once per
// distinct (program, machine) key — the single-flight guarantee holding
// end to end through the HTTP layer.
func TestServerSingleFlightUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 128
	programs := []string{
		"scan(+) ; reduce(+)", "scan(*) ; scan(+)", "bcast ; scan(+) ; scan(+)",
		"reduce(max)", "allreduce(+) ; reduce(+)", "map inc ; scan(+)",
		"bcast ; reduce(min)", "gather ; scatter ; scan(+)",
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, httpResp := postOptimize(t, ts.URL, Request{Program: programs[i%len(programs)], M: 16})
			if httpResp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: HTTP %d", i, httpResp.StatusCode)
				return
			}
			if resp.Optimized == "" {
				errs <- fmt.Errorf("client %d: empty plan", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if runs := s.Planner().EngineRuns(); runs != int64(len(programs)) {
		t.Errorf("engine ran %d times for %d distinct programs under %d clients", runs, len(programs), clients)
	}
	st := s.Planner().Cache.Stats()
	if st.Hits+st.Coalesced != clients-uint64(len(programs)) {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, clients-len(programs))
	}
}

// TestServerFusionOverHTTP: a burst of compatible fuse-enabled requests
// is batched; each response carries its batch size and offset, and the
// fused block size is the members' sum.
func TestServerFusionOverHTTP(t *testing.T) {
	const burst = 6
	s, ts := newTestServer(t, Config{
		FuseCycle:    200 * time.Millisecond,
		FuseMaxCount: burst,
		FuseMaxBytes: 1 << 30,
	})
	var wg sync.WaitGroup
	resps := make([]Response, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, httpResp := postOptimize(t, ts.URL, Request{Program: "allreduce(+)", M: i + 1, Fuse: true})
			if httpResp.StatusCode != http.StatusOK {
				t.Errorf("client %d: HTTP %d", i, httpResp.StatusCode)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	total := burst * (burst + 1) / 2
	offsets := make(map[int]bool)
	for i, resp := range resps {
		if resp.Fusion == nil {
			t.Fatalf("client %d: no fusion info", i)
		}
		if resp.Fusion.Batch != burst || resp.Fusion.FusedM != total {
			t.Errorf("client %d: fusion = %+v, want batch %d fused_m %d", i, resp.Fusion, burst, total)
		}
		if offsets[resp.Fusion.OffsetWords] {
			t.Errorf("duplicate offset %d", resp.Fusion.OffsetWords)
		}
		offsets[resp.Fusion.OffsetWords] = true
		if resp.Machine.M != total {
			t.Errorf("client %d: machine.m = %d, want fused %d", i, resp.Machine.M, total)
		}
	}
	fs := s.Fuser().Stats()
	if fs.Batches != 1 || fs.FusedRequests != burst {
		t.Errorf("fusion stats = %+v", fs)
	}
	// A non-fusible program with fuse: true falls back to the direct path.
	resp, _ := postOptimize(t, ts.URL, Request{Program: "map inc ; scan(+)", M: 4, Fuse: true})
	if resp.Fusion != nil {
		t.Errorf("non-fusible request got fusion info %+v", resp.Fusion)
	}
}

// TestOversizedBodyRejected: a request body over the cap is refused with
// a JSON 413 before any engine runs, and counts as an error. The program
// itself is valid — the padding is JSON whitespace — so only the size
// decides.
func TestOversizedBodyRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"program":"scan(+) ; reduce(+)"` + strings.Repeat(" ", 2<<20) + `}`
	httpResp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d for a %d-byte body, want 413", httpResp.StatusCode, len(body))
	}
	var msg map[string]string
	if err := json.NewDecoder(httpResp.Body).Decode(&msg); err != nil || msg["error"] == "" {
		t.Fatalf("413 body is not a JSON error (%v): %v", err, msg)
	}
	if runs := s.Planner().EngineRuns(); runs != 0 {
		t.Fatalf("%d engine runs for a refused request", runs)
	}
	if errs := s.Metrics().Errors; errs != 1 {
		t.Fatalf("errors = %d, want 1", errs)
	}
}
