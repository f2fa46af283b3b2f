package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestNonFiniteCostNotServed: a start-up time near the float range makes
// the cost estimate +Inf. The request must fail with a JSON error body,
// not a 200 with an empty body, and the failed plan must not be cached.
func TestNonFiniteCostNotServed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"program":"scan(+) ; reduce(+)","ts":1e308,"tw":1e308,"p":8,"m":4096}`
	for i := 0; i < 2; i++ {
		r, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		err = json.NewDecoder(r.Body).Decode(&doc)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			t.Fatalf("request %d: HTTP 200 for a non-finite cost (body decodes: %v)", i, err)
		}
		if err != nil || doc["error"] == nil {
			t.Errorf("request %d: HTTP %d without a JSON error body (%v, %v)", i, r.StatusCode, doc, err)
		}
	}
	if n := s.Planner().Cache.Len(); n != 0 {
		t.Errorf("cache holds %d plans after two failed computes, want 0", n)
	}
	if runs := s.Planner().EngineRuns(); runs != 2 {
		t.Errorf("%d engine runs, want 2 (the failure must not be served from the cache)", runs)
	}
}

// TestWriteJSONUnencodable: a value that does not encode becomes a JSON
// 500, never a committed 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"cost": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("HTTP %d, want 500", rec.Code)
	}
	var doc map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["error"] == "" {
		t.Errorf("body %q is not a JSON error (%v)", rec.Body.String(), err)
	}
}

// TestMachineForRejects: non-finite start-up and per-word times, and
// blocks whose byte size overflows an int, are bad requests.
func TestMachineForRejects(t *testing.T) {
	s := New(Config{})
	inf, nan, ok := math.Inf(1), math.NaN(), 5.0
	for _, req := range []Request{
		{Ts: &inf}, {Tw: &inf}, {Ts: &nan}, {Tw: &nan},
		{M: maxWords + 1}, {M: 1 << 62}, {M: math.MaxInt},
	} {
		if m, err := s.machineFor(req); err == nil {
			t.Errorf("machineFor accepted %+v", m)
		}
	}
	if _, err := s.machineFor(Request{Ts: &ok, Tw: &ok, M: maxWords}); err != nil {
		t.Errorf("machineFor rejected the largest block: %v", err)
	}
}

// TestFuseHugeBlocks: concurrent fusible requests whose blocks sum past
// the int range never come back as a 200 with a negative fused block,
// cost or offset.
func TestFuseHugeBlocks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := `{"program":"scan(+) ; reduce(+)","fuse":true,"p":8,"m":4611686018427387904}`
			r, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Body.Close()
			if r.StatusCode != http.StatusOK {
				return
			}
			var resp Response
			if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
				t.Errorf("undecodable 200: %v", err)
				return
			}
			if resp.Fusion == nil || resp.Fusion.FusedM <= 0 || resp.Fusion.OffsetWords < 0 ||
				resp.CostBefore < 0 || resp.CostAfter < 0 {
				t.Errorf("HTTP 200 with fusion %+v, cost %g -> %g", resp.Fusion, resp.CostBefore, resp.CostAfter)
			}
		}()
	}
	wg.Wait()
}

// TestFusionSumNeverOverflows: with a bytes threshold no sum can reach,
// members whose blocks would overflow the fused sum are split across
// batches, each with a positive fused block and in-range offsets.
func TestFusionSumNeverOverflows(t *testing.T) {
	pl := NewPlanner(64, 4)
	f := NewFuser(pl, 50*time.Millisecond, 100, math.MaxInt)
	mach := core.Machine{Ts: 1000, Tw: 1, P: 8}
	m := maxWords/2 + 1
	_, infos := submitN(t, f, "scan(+) ; reduce(+)", mach, []int{m, m, m})
	for i, info := range infos {
		if info.FusedM < m || info.OffsetWords < 0 || info.OffsetWords > info.FusedM-m {
			t.Errorf("member %d: %+v for a %d-word block", i, info, m)
		}
	}
	if st := f.Stats(); st.Batches != 3 {
		t.Errorf("%d batches, want 3 (no two members fit one fused block)", st.Batches)
	}
}

// TestVerifySizes: the request's p joins the verifier's sizes when it
// is small and new, in ascending order; the configured list itself is
// never modified.
func TestVerifySizes(t *testing.T) {
	base := NewPlanner(1, 1).VerifyCfg.Sizes
	orig := slices.Clone(base)
	cases := []struct {
		p    int
		want []int
	}{
		{6, []int{1, 2, 4, 6, 8}},
		{8, []int{1, 2, 4, 8}},
		{64, []int{1, 2, 4, 8}},
		{16, []int{1, 2, 4, 8, 16}},
		{3, []int{1, 2, 3, 4, 8}},
	}
	for _, c := range cases {
		if got := verifySizes(base, c.p); !slices.Equal(got, c.want) {
			t.Errorf("p=%d: sizes %v, want %v", c.p, got, c.want)
		}
	}
	if !slices.Equal(base, orig) {
		t.Errorf("configured sizes modified: %v, was %v", base, orig)
	}
	if got := verifySizes(nil, 6); got != nil {
		t.Errorf("nil sizes became %v, want the verifier's defaults (nil)", got)
	}
}

// TestScatterServedUnchanged: a program no rule rewrites is its own
// plan, verified by identity, even when the verifier's scalar inputs
// could not drive it (scatter needs a list on the first processor).
func TestScatterServedUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, r := postOptimize(t, ts.URL, Request{Program: "scatter", P: 4})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", r.StatusCode)
	}
	if resp.Optimized != "scatter" || len(resp.Applications) != 0 || !resp.Verified {
		t.Errorf("plan %q, applications %v, verified %v; want scatter unchanged and verified",
			resp.Optimized, resp.Applications, resp.Verified)
	}
}

// TestMissAllocs pins the allocations of a plan-cache miss with
// verification on, for a program the engine rewrites and for one it
// leaves unchanged. Every call carries a start-up time no earlier call
// used, so each one computes a plan. The bounds are the measured counts
// plus about a quarter; an empty derivation that is sampled again, or a
// rule table rebuilt per stage, exceeds them.
func TestMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := []struct {
		src   string
		bound float64
	}{
		{"bcast ; scan(+) ; scan(+)", 8150},     // measured 6518
		{"scan(+) ; map inc ; reduce(max)", 98}, // measured 78; 1355 when sampled
	}
	for _, c := range cases {
		pl := NewPlanner(1024, 4)
		prog, err := pl.ParseProgram(c.src)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		var planErr error
		var hits, rewritten int
		allocs := testing.AllocsPerRun(100, func() {
			k++
			plan, cached, err := pl.PlanTermOpts(prog, core.Machine{Ts: 1000 + float64(k)/1024, Tw: 1, P: 8, M: 64}, StrategyGreedy, false)
			if err != nil {
				planErr = err
			}
			if cached {
				hits++
			}
			if len(plan.Applications) > 0 {
				rewritten++
			}
		})
		if planErr != nil || hits > 0 {
			t.Fatalf("%q: %d cache hits, error %v; want fresh misses only", c.src, hits, planErr)
		}
		t.Logf("%q: %.0f allocs per miss (%d of 101 rewritten)", c.src, allocs, rewritten)
		if allocs > c.bound {
			t.Errorf("%q: %.0f allocs per miss, want ≤ %.0f", c.src, allocs, c.bound)
		}
	}
}
