package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/term"
)

const (
	// poolSize is the number of distinct programs a serve stream draws
	// from.
	poolSize = 256
	// clients is the closed-loop client count: one per core of the
	// 2-core reference host, so the load generator never needs more
	// threads than the server.
	clients = 2
	// requestP is the processor count every request asks for.
	requestP = 8
	// spanHeader carries the client's span ID to the server-side span.
	spanHeader = "X-Bench-Span"
)

// poolItem is one program of the request pool with its request options.
type poolItem struct {
	Src       string
	Prog      term.Seq
	Canonical string
	Strategy  serve.Strategy
	Select    bool
	M         int
	// Body is the request as sent on serve-hot (server-default ts).
	Body []byte
}

// Machine is the machine the server resolves the item's request to.
func (it poolItem) Machine(ts float64) core.Machine {
	def := serve.DefaultConfig().Machine
	return core.Machine{Ts: ts, Tw: def.Tw, P: requestP, M: it.M}
}

// Key is the plan-cache key of the item at start-up time ts.
func (it poolItem) Key(ts float64) string {
	return serve.KeyOpts(it.Canonical, it.Machine(ts), it.Strategy, it.Select)
}

// request renders the item as a request body; ts ≤ 0 leaves the server
// default in place.
func (it poolItem) request(ts float64) serve.Request {
	r := serve.Request{Program: it.Src, P: requestP, M: it.M, Strategy: string(it.Strategy), Select: it.Select}
	if ts > 0 {
		r.Ts = &ts
	}
	return r
}

// poolSeed seeds the request pool. The pool is part of the workload,
// like the exec corpus, and --seed orders the requests drawn from it:
// with a pool drawn per seed, serve-cold's median latency moved by 23%
// and its allocation per request by 13% from one seed to the next.
const poolSeed = 1

// buildPool draws the request pool: one program in eight from
// rules.RandSparseProgram and the rest from rules.RandProgram, a quarter
// on the search strategy and a quarter with algorithm selection, the mix
// laid out by index.
func buildPool() ([]poolItem, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	pl := serve.NewPlanner(1, 1)
	sizes := []int{16, 256, 4096}
	pool := make([]poolItem, poolSize)
	for i := range pool {
		var prog term.Seq
		if i%8 == 7 {
			prog = rules.RandSparseProgram(rng, requestP)
		} else {
			prog = rules.RandProgram(rng, 4)
		}
		it := poolItem{Src: rules.Canonical(prog), Strategy: serve.StrategyGreedy, M: sizes[i%len(sizes)]}
		if i/8%4 == 3 {
			it.Strategy = serve.StrategySearch
		}
		it.Select = i/32%4 == 3
		parsed, err := pl.ParseProgram(it.Src)
		if err != nil {
			return nil, fmt.Errorf("pool program %q does not parse: %w", it.Src, err)
		}
		it.Prog = parsed
		it.Canonical = rules.Canonical(parsed)
		body, err := json.Marshal(it.request(0))
		if err != nil {
			return nil, err
		}
		it.Body = body
		pool[i] = it
	}
	return pool, nil
}

// stream is a workload's request sequence over the pool, drawn from
// --seed. On serve-cold request i carries start-up time coldTs(i), so no
// two requests — and no request and the warm-up — share a cache key.
type stream struct {
	pool []poolItem
	seed int64
	cold bool
}

// splitmix64 is a stateless mixer: request i's pool index depends only
// on (seed, i), whatever the interleaving of the clients.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s stream) item(i int64) *poolItem {
	return &s.pool[splitmix64(uint64(s.seed)<<32^uint64(i))%uint64(len(s.pool))]
}

// coldTs is serve-cold's start-up time for request i: distinct per
// request and never the server default, so every key is new while the
// optimizer sees practically the same machine.
func coldTs(i int64) float64 { return 1000 + float64(i+1)/1024 }

// ts is request i's start-up time (0: server default).
func (s stream) ts(i int64) float64 {
	if s.cold {
		return coldTs(i)
	}
	return 0
}

func (s stream) body(i int64) ([]byte, error) {
	it := s.item(i)
	if !s.cold {
		return it.Body, nil
	}
	return json.Marshal(it.request(coldTs(i)))
}

// key is the plan-cache key request i resolves to.
func (s stream) key(i int64) string {
	ts := s.ts(i)
	if ts == 0 {
		ts = serve.DefaultConfig().Machine.Ts
	}
	return s.item(i).Key(ts)
}

// validateResponse is the serve oracle: a response is correct only with
// HTTP 200, a decodable body, a non-empty optimized program, finite
// non-negative cost estimates, verified set, and the canonical form of
// the program sent.
func validateResponse(status int, body []byte, wantCanonical string) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable body (%d bytes): %v", len(body), err)
	}
	switch {
	case resp.Optimized == "":
		return fmt.Errorf("empty optimized program")
	case !finiteNonNeg(resp.CostBefore) || !finiteNonNeg(resp.CostAfter):
		return fmt.Errorf("bad cost estimates %g -> %g", resp.CostBefore, resp.CostAfter)
	case !resp.Verified:
		return fmt.Errorf("plan not verified")
	case resp.Canonical != wantCanonical:
		return fmt.Errorf("canonical %q, want %q", resp.Canonical, wantCanonical)
	}
	return nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }

// serveHarness is an in-process optimizer service on a loopback
// listener and its keep-alive clients.
type serveHarness struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
	// tracer, when set, makes the server wrapper record a span around
	// every Handler().ServeHTTP call.
	tracer atomic.Pointer[Tracer]
}

func startServe() (*serveHarness, error) {
	srv := serve.New(serve.DefaultConfig())
	return startHandler(srv, srv.Handler())
}

// startHandler serves inner on a loopback listener; srv supplies the
// counters.
func startHandler(srv *serve.Server, inner http.Handler) (*serveHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &serveHarness{srv: srv, done: make(chan struct{})}
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tracer.Load()
		if tr == nil {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := Span{ID: tr.NewID(), Parent: parent, Op: parent, Name: "serve.handler", Start: tr.Now()}
		inner.ServeHTTP(w, r)
		s.End = tr.Now()
		tr.Record(s)
	})}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	h.url = "http://" + ln.Addr().String() + "/optimize"
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	return h, nil
}

// close stops the listener and every connection and waits for the
// serving goroutine to return.
func (h *serveHarness) close() {
	h.hs.Close()
	<-h.done
	h.client.CloseIdleConnections()
	h.srv.Drain()
}

// post sends one request and reads the whole response.
func (h *serveHarness) post(body []byte, span uint64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// loadResult is one closed-loop window.
type loadResult struct {
	LatUs      []float64
	OK, Failed int64
	Wall       time.Duration
	AllocBytes uint64
	Before     serve.Snapshot
	After      serve.Snapshot
	FirstErr   error
}

// load runs the clients in a closed loop for dur, each taking the next
// request of the stream from the shared counter. With tr set each
// request is a span, parent of the server-side handler span.
func (h *serveHarness) load(st stream, next *atomic.Int64, dur time.Duration, tr *Tracer) loadResult {
	h.tracer.Store(tr)
	defer h.tracer.Store(nil)
	var res loadResult
	var mu sync.Mutex
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.Before = h.srv.Metrics()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]float64, 0, 1<<16)
			var ok, failed int64
			var firstErr error
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				body, err := st.body(i)
				if err != nil {
					failed++
					firstErr = err
					continue
				}
				id := tr.NewID()
				t0 := time.Now()
				s := Span{ID: id, Op: id, Name: "serve.request", Start: tr.Now()}
				status, rb, err := h.post(body, id)
				d := time.Since(t0)
				s.End = tr.Now()
				tr.Record(s)
				if err == nil {
					err = validateResponse(status, rb, st.item(i).Canonical)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					continue
				}
				ok++
				lat = append(lat, float64(d)/1e3)
			}
			mu.Lock()
			res.LatUs = append(res.LatUs, lat...)
			res.OK += ok
			res.Failed += failed
			if res.FirstErr == nil {
				res.FirstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.After = h.srv.Metrics()
	return res
}

// warm sends every pool item once (split over the clients) so its plan
// is resident, and returns the failures.
func (h *serveHarness) warm(pool []poolItem) (int64, error) {
	var mu sync.Mutex
	var failed int64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(pool); i += clients {
				status, rb, err := h.post(pool[i].Body, 0)
				if err == nil {
					err = validateResponse(status, rb, pool[i].Canonical)
				}
				if err != nil {
					mu.Lock()
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("warming %q: %w", pool[i].Src, err)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return failed, firstErr
}
