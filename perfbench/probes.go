package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/term"
)

// The layer probes call one module's public functions at a time, each
// timed by the benchmark itself, so every traced run carries the whole
// layer ledger: the layers its own workload exercises and the ones it
// bypasses.

// probePasses is the number of passes over the pool per hit-path probe;
// each probe reports the median pass.
const probePasses = 5

// allocsPerRun is testing.AllocsPerRun with the collector held off: a
// collection empties the sync.Pools that net/http and encoding/json
// draw from, which would move the count by one or two between runs.
func allocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// passMedian runs pass n times and returns the median of its results.
func passMedian(n int, pass func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = pass()
	}
	return median(xs)
}

// serveProbe is the serve and optimizer ledger of one pool.
type serveProbe struct {
	Metrics  map[string]float64
	Counts   map[string]float64
	Attempts int64
	Failed   int64
	FirstErr error
}

// handle runs one request through the handler without a socket.
func handle(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
	return rec
}

// probeServe measures the serve path phase by phase on a fresh
// in-process server over the pool.
func probeServe(pool []poolItem) (*serveProbe, error) {
	sp := &serveProbe{Metrics: map[string]float64{}, Counts: map[string]float64{}}
	srv := serve.New(serve.DefaultConfig())
	pl := srv.Planner()
	h := srv.Handler()
	defTs := serve.DefaultConfig().Machine.Ts
	fail := func(err error) {
		sp.Failed++
		if sp.FirstErr == nil {
			sp.FirstErr = err
		}
	}
	plans := make([]serve.Plan, len(pool))
	for i, it := range pool {
		sp.Attempts++
		rec := handle(h, it.Body)
		if err := validateResponse(rec.Code, rec.Body.Bytes(), it.Canonical); err != nil {
			fail(fmt.Errorf("probe warm-up %q: %w", it.Src, err))
		}
		plan, _, err := pl.PlanTermOpts(it.Prog, it.Machine(defTs), it.Strategy, it.Select)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
	}
	before := srv.Metrics()
	n := float64(len(pool))
	m := sp.Metrics

	m["lang.parse_us"] = passMedian(probePasses, func() float64 {
		t0 := time.Now()
		for _, it := range pool {
			if _, err := pl.ParseProgram(it.Src); err != nil {
				fail(err)
			}
		}
		return us(time.Since(t0)) / n
	})
	m["rules.canonical_us"] = passMedian(probePasses, func() float64 {
		t0 := time.Now()
		for _, it := range pool {
			rules.Canonical(it.Prog)
		}
		return us(time.Since(t0)) / n
	})
	errMiss := errors.New("resident key missed the cache")
	m["serve.cache_us"] = passMedian(probePasses, func() float64 {
		t0 := time.Now()
		for _, it := range pool {
			pl.Cache.GetOrCompute(it.Key(defTs), func() (serve.Plan, error) { return serve.Plan{}, errMiss })
		}
		return us(time.Since(t0)) / n
	})
	var buf bytes.Buffer
	m["serve.json_us"] = passMedian(probePasses, func() float64 {
		t0 := time.Now()
		for i, it := range pool {
			var req serve.Request
			if err := json.NewDecoder(bytes.NewReader(it.Body)).Decode(&req); err != nil {
				fail(err)
			}
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(serve.Response{Plan: plans[i], Cached: true, Machine: it.Machine(defTs)}); err != nil {
				fail(err)
			}
		}
		return us(time.Since(t0)) / n
	})
	m["serve.handler_us"] = passMedian(probePasses, func() float64 {
		t0 := time.Now()
		for _, it := range pool {
			handle(h, it.Body)
		}
		return us(time.Since(t0)) / n
	})

	// Misses: every request gets a start-up time no other request uses.
	missSeq := int64(0)
	missBody := func(it poolItem) []byte {
		missSeq++
		b, err := json.Marshal(it.request(2000 + float64(missSeq)/1024))
		if err != nil {
			panic(err) // a serve.Request always marshals
		}
		return b
	}
	m["serve.handler_miss_us"] = passMedian(2, func() float64 {
		var total time.Duration
		for _, it := range pool {
			b := missBody(it)
			t0 := time.Now()
			rec := handle(h, b)
			total += time.Since(t0)
			sp.Attempts++
			if err := validateResponse(rec.Code, rec.Body.Bytes(), it.Canonical); err != nil {
				fail(fmt.Errorf("probe miss %q: %w", it.Src, err))
			}
		}
		return us(total) / n
	})

	// Allocations per handler call, net of building the request and
	// recorder.
	k := 0
	buildOnly := allocsPerRun(len(pool), func() {
		httptest.NewRecorder()
		httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(pool[k%len(pool)].Body))
		k++
	})
	k = 0
	hitAllocs := allocsPerRun(len(pool), func() {
		handle(h, pool[k%len(pool)].Body)
		k++
	})
	missBodies := make([][]byte, 0, len(pool)+1)
	for i := 0; i <= len(pool); i++ {
		missBodies = append(missBodies, missBody(pool[i%len(pool)]))
	}
	k = 0
	missAllocs := allocsPerRun(len(pool), func() {
		handle(h, missBodies[k])
		k++
	})
	m["serve.handler_allocs_hit"] = hitAllocs - buildOnly
	m["serve.handler_allocs_miss"] = missAllocs - buildOnly
	sp.Counts["serve.handler_allocs_hit"] = m["serve.handler_allocs_hit"]
	sp.Counts["serve.handler_allocs_miss"] = m["serve.handler_allocs_miss"]

	// Optimizer phases, each called directly with the planner's
	// settings: greedy or search with verification off, then the
	// verifier, the cost model and the selector on the result.
	var nGreedy, nSearch, nSel float64
	for _, it := range pool {
		switch {
		case it.Strategy == serve.StrategySearch:
			nSearch++
		default:
			nGreedy++
		}
		if it.Select {
			nSel++
		}
	}
	type phaseTimes struct{ greedy, search, verify, score, choose time.Duration }
	nodes := 0
	passes := make([]phaseTimes, 2)
	for pi := range passes {
		pt := &passes[pi]
		nodes = 0
		for _, it := range pool {
			mach := it.Machine(defTs)
			params := cost.Params{Ts: mach.Ts, Tw: mach.Tw, M: mach.M, P: mach.P}
			search := it.Strategy == serve.StrategySearch
			t0 := time.Now()
			opt, err := core.FromTerm(it.Prog).OptimizeOpts(mach, core.OptimizeOptions{
				Search: search, SearchConfig: pl.SearchCfg, Auto: it.Select,
			})
			d := time.Since(t0)
			if err != nil {
				fail(err)
				continue
			}
			if search {
				pt.search += d
				nodes += opt.Search.Nodes
			} else {
				pt.greedy += d
			}
			optT := term.Compose(opt.Program.Term())
			t0 = time.Now()
			err = rules.VerifyEquivalence(it.Prog, optT, pl.VerifyCfg)
			pt.verify += time.Since(t0)
			sp.Attempts++
			if err != nil {
				fail(fmt.Errorf("verifying %q: %w", it.Src, err))
			}
			score := cost.OfTerm
			if it.Select {
				score = cost.OfTermAuto
			}
			t0 = time.Now()
			score(it.Prog, params)
			score(optT, params)
			pt.score += time.Since(t0)
			if it.Select {
				t0 = time.Now()
				sel.ForTerm(optT, params)
				pt.choose += time.Since(t0)
			}
		}
	}
	pick := func(f func(phaseTimes) time.Duration, per float64) float64 {
		xs := make([]float64, len(passes))
		for i, pt := range passes {
			xs[i] = us(f(pt)) / per
		}
		return median(xs)
	}
	m["rules.greedy_us"] = pick(func(p phaseTimes) time.Duration { return p.greedy }, nGreedy)
	m["rules.search_us"] = pick(func(p phaseTimes) time.Duration { return p.search }, nSearch)
	m["rules.verify_us"] = pick(func(p phaseTimes) time.Duration { return p.verify }, n)
	m["cost.score_us"] = pick(func(p phaseTimes) time.Duration { return p.score }, 2*n)
	m["sel.choose_us"] = pick(func(p phaseTimes) time.Duration { return p.choose }, nSel)
	m["rules.search_nodes"] = float64(nodes)
	sp.Counts["rules.search_nodes"] = float64(nodes)
	// What a miss costs beyond the phases measured on their own (cost
	// scoring and selection run inside OptimizeOpts, so they are not
	// added again).
	perReq := m["serve.json_us"] + m["lang.parse_us"] + m["rules.canonical_us"] + m["serve.cache_us"] +
		(m["rules.greedy_us"]*nGreedy+m["rules.search_us"]*nSearch)/n + m["rules.verify_us"]
	m["serve.unexplained_us"] = m["serve.handler_miss_us"] - perReq

	after := srv.Metrics()
	setServeCounters(m, before, after)
	srv.Drain()
	return sp, nil
}

// setServeCounters stores the server's counter deltas between two
// snapshots.
func setServeCounters(m map[string]float64, before, after serve.Snapshot) {
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	m["serve.cache_hit_rate"] = 0
	if hits+misses > 0 {
		m["serve.cache_hit_rate"] = hits / (hits + misses)
	}
	m["serve.cache_evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	m["serve.engine_runs"] = float64(after.EngineRuns - before.EngineRuns)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// pingpong is an SPMD body bouncing v between ranks 0 and 1 rounds
// times.
func pingpong(v algebra.Value, rounds int) func(*backend.Proc) {
	return func(p *backend.Proc) {
		for i := 0; i < rounds; i++ {
			t1, t2 := p.NextTag(), p.NextTag()
			if p.Rank() == 0 {
				p.Send(1, v, t1)
				p.Recv(1, t2)
			} else {
				p.Send(0, p.Recv(0, t1), t2)
			}
		}
	}
}

// pingpongNative is the in-process round trip of an m-word vector
// between two ranks of a reused machine, in µs (median of 5 runs).
func pingpongNative(m int) float64 {
	nm := backend.New(2)
	v := vecInputs(rand.New(rand.NewSource(1)), 1, m)[0]
	const rounds = 2000
	nm.Run(pingpong(v, 100))
	return passMedian(5, func() float64 { return us(nm.Run(pingpong(v, rounds)).Makespan) / rounds })
}

// allocsPerMsgNative is the allocation count per message of the
// in-process ping-pong, the machine's per-run set-up amortized over 200
// messages.
func allocsPerMsgNative() float64 {
	nm := backend.New(2)
	const rounds = 100
	body := pingpong(vecInputs(rand.New(rand.NewSource(1)), 1, 16)[0], rounds)
	return allocsPerRun(20, func() { nm.Run(body) }) / (2 * rounds)
}

// pingpongMP runs the built-in probe body's ping-pong over two rank
// processes and returns the round trip in µs (fastest of the timed
// repetitions) and the spawn overhead in ms (job wall time minus the
// body's timed repetitions).
func pingpongMP(m int) (rttUs, spawnMs float64, err error) {
	const rounds, reps = 500, 5
	t0 := time.Now()
	res, err := mpbackend.Run("probe", 2, mpbackend.ProbeParams{Probe: "pingpong", M: m, Rounds: rounds, Reps: reps},
		mpbackend.Options{Timeout: 60 * time.Second})
	wall := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	best, err := mpbackend.MinMakespan(res)
	if err != nil {
		return 0, 0, err
	}
	timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
	if err != nil {
		return 0, 0, err
	}
	work := 0.0
	for _, ns := range timings[0].RepNs {
		work += ns
	}
	return best / 1e3 / rounds, (float64(wall) - work) / 1e6, nil
}

// kernelNsPerWord times op.ApplyInto on 4096-word vectors (median of 5
// batches).
func kernelNsPerWord(op *algebra.Op) float64 {
	const m, iters = 4096, 500
	rng := rand.New(rand.NewSource(2))
	a := vecInputs(rng, 1, m)[0]
	b := vecInputs(rng, 1, m)[0]
	dst := algebra.Value(make(algebra.Vec, m))
	return passMedian(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			dst = op.ApplyInto(dst, a, b)
		}
		return float64(time.Since(t0)) / (iters * m)
	})
}

// fit is the §4.1 machine fitted from this run's own probes: start-up
// and per-word time of one message from the ping-pong, and the time of
// one word of operator work from the + kernel.
type fit struct{ TsUs, TwUs, CUs float64 }

func fitMachine(pp16, pp4096, addNsPerWord float64) fit {
	tw := (pp4096 - pp16) / 2 / (4096 - 16)
	if tw < 0 {
		tw = 0
	}
	ts := pp16/2 - 16*tw
	if ts < 0 {
		ts = 0
	}
	return fit{TsUs: ts, TwUs: tw, CUs: addNsPerWord / 1e3}
}

// stageRelErr is the median relative error of cost.StageCost, priced
// with the fitted machine, against every measured plan stage.
func stageRelErr(corpus []*entry, p int, stageMed [][]float64, f fit) float64 {
	params := cost.Params{Ts: f.TsUs / f.CUs, Tw: f.TwUs / f.CUs, P: p}
	var errs []float64
	for i, e := range corpus {
		params.M = e.M
		b := float64(e.M)
		if c, ok := progCounts(e.Orig); ok {
			b = float64(term.SumCounts(c))
		}
		for s, st := range e.Stages {
			var pred float64
			pred, b = cost.StageCost(st, params, b)
			meas := stageMed[i][s]
			if meas > 0 {
				errs = append(errs, math.Abs(pred*f.CUs-meas)/meas)
			}
		}
	}
	return median(errs)
}
