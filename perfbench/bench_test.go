package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/mpbackend"
	"repro/internal/serve"
)

func TestMain(m *testing.M) {
	// exec-multiproc tests re-execute the test binary as rank processes.
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// beyond counts the samples of sorted strictly greater than v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func TestTailRule(t *testing.T) {
	for _, n := range []int{21, 50, 100, 500, 999, 1000, 1001, 5000, 100000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		v, q := tail(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got := beyond(sorted, v); got < minBeyond {
			t.Errorf("n=%d: tail percentile %.4f leaves %d samples beyond, want ≥ %d", n, q, got, minBeyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: tail percentile %.4f, want 0.99", n, q)
		}
		if n < 1000 && beyond(sorted, v) != minBeyond {
			t.Errorf("n=%d: %d beyond, want exactly %d (the highest such percentile)", n, beyond(sorted, v), minBeyond)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) || !math.IsNaN(geomean(nil)) {
		t.Error("geomean of a zero or of nothing must be NaN, not a number that looks measured")
	}
}

func TestSeededDeterminism(t *testing.T) {
	pool, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := buildPool()
	var search, selected int
	for i, it := range pool {
		if string(it.Body) != string(again[i].Body) {
			t.Fatalf("pool item %d differs between two builds", i)
		}
		if it.Strategy == serve.StrategySearch {
			search++
		}
		if it.Select {
			selected++
		}
	}
	if search != poolSize/4 || selected != poolSize/4 {
		t.Errorf("pool mix: %d search and %d select requests of %d, want a quarter each", search, selected, poolSize)
	}
	for _, cold := range []bool{false, true} {
		sa, sb, sc := stream{pool: pool, seed: 3, cold: cold}, stream{pool: again, seed: 3, cold: cold}, stream{pool: pool, seed: 4, cold: cold}
		differs := false
		for i := int64(0); i < 2000; i++ {
			ba, _ := sa.body(i)
			bb, _ := sb.body(i)
			bc, _ := sc.body(i)
			if string(ba) != string(bb) {
				t.Fatalf("cold=%v: request %d differs between two streams of seed 3", cold, i)
			}
			differs = differs || string(ba) != string(bc)
		}
		if !differs {
			t.Errorf("cold=%v: seeds 3 and 4 gave the same request stream", cold)
		}
	}

	ca, err := buildCorpus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := buildCorpus(3, 4)
	cc, _ := buildCorpus(4, 4)
	if len(ca) != 32 {
		t.Fatalf("corpus has %d plans, want 32", len(ca))
	}
	inputsDiffer := false
	for i := range ca {
		if ca[i].Canonical != cb[i].Canonical || !algebra.EqualLists(ca[i].Inputs, cb[i].Inputs) {
			t.Fatalf("%s differs between two corpora of seed 3", ca[i].Name)
		}
		inputsDiffer = inputsDiffer || !algebra.EqualLists(ca[i].Inputs, cc[i].Inputs)
	}
	if !inputsDiffer {
		t.Error("seeds 3 and 4 gave the same corpus inputs")
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	pool, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, it := range pool {
		seen[it.Key(serve.DefaultConfig().Machine.Ts)] = true // the warm-up's keys
	}
	st := stream{pool: pool, seed: 5, cold: true}
	for i := int64(0); i < 50000; i++ {
		k := st.key(i)
		if seen[k] {
			t.Fatalf("serve-cold request %d repeats cache key %q", i, k)
		}
		seen[k] = true
	}
	// The key the stream predicts is the key the server computes.
	var req serve.Request
	body, _ := st.body(7)
	if err := json.Unmarshal(body, &req); err != nil || req.Ts == nil || *req.Ts != coldTs(7) {
		t.Fatalf("request 7 does not carry ts %g: %s", coldTs(7), body)
	}
}

func TestWrongExecOutputIsCounted(t *testing.T) {
	corpus, err := buildCorpus(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := newNativeExec(4)
	if r := x.run(corpus, phase{Rounds: 1}); r.Failed != 0 || r.Execs != int64(len(corpus)) {
		t.Fatalf("clean pass: %d failed of %d", r.Failed, r.Execs)
	}
	// Corrupt the root's reference of one plan: its run must now fail.
	bad := *corpus[0]
	ref := append([]algebra.Value(nil), bad.Ref...)
	ref[0] = algebra.Add.Apply(ref[0], algebra.Scalar(1))
	bad.Ref = ref
	if r := x.run([]*entry{&bad}, phase{Rounds: 3}); r.Failed != 3 {
		t.Fatalf("wrong output counted %d times in 3 runs, want 3", r.Failed)
	}

	if !outputOK(algebra.Scalar(5), algebra.Undef{}) {
		t.Error("an Undef reference position (non-root reduce) must be a don't-care")
	}
	if outputOK(algebra.Undef{}, algebra.Scalar(5)) {
		t.Error("an Undef output where the reference is determined must fail")
	}
	if !outputOK(algebra.Vec{1, 2}, algebra.Vec{1, 2 + 1e-12}) || outputOK(algebra.Vec{1, 2}, algebra.Vec{1, 2.1}) {
		t.Error("numeric comparison is not within the 1e-9 relative tolerance")
	}
}

func TestEmpty200IsCounted(t *testing.T) {
	if validateResponse(http.StatusOK, nil, "bcast") == nil {
		t.Error("a 200 with an empty body passed the oracle")
	}
	pool, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	h, err := startHandler(serve.New(serve.DefaultConfig()), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK) // and no body, as a failed encode after WriteHeader leaves it
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	var next atomic.Int64
	r := h.load(stream{pool: pool, seed: 1}, &next, 200*time.Millisecond, nil)
	if r.OK != 0 || r.Failed == 0 || r.Failed != next.Load() {
		t.Fatalf("empty 200s: %d ok, %d failed of %d sent", r.OK, r.Failed, next.Load())
	}
}

func TestServeOracleAcceptsRealServer(t *testing.T) {
	pool, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	h, err := startServe()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if failed, err := h.warm(pool); failed != 0 {
		t.Fatalf("%d pool programs failed: %v", failed, err)
	}
	var next atomic.Int64
	r := h.load(stream{pool: pool, seed: 2, cold: true}, &next, 300*time.Millisecond, nil)
	if r.Failed != 0 || r.OK == 0 {
		t.Fatalf("serve-cold: %d ok, %d failed: %v", r.OK, r.Failed, r.FirstErr)
	}
	if runs := r.After.EngineRuns - r.Before.EngineRuns; runs != r.OK {
		t.Errorf("serve-cold ran the engine %d times for %d requests", runs, r.OK)
	}
}

func TestCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		corpus, err := buildCorpus(9, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := newNativeExec(8).run(corpus, phase{Rounds: 1})
		pool, err := buildPool()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := probeServe(pool)
		if err != nil {
			t.Fatal(err)
		}
		c := map[string]float64{"coll.msgs": float64(r.Msgs), "coll.words": float64(r.Words), "algebra.ops": r.Ops,
			"backend.allocs_per_msg": allocsPerMsgNative()}
		for k, v := range sp.Counts {
			c[k] = v
		}
		return c
	}
	a, b := counts(), counts()
	for k, v := range a {
		if raceEnabled && strings.Contains(k, "allocs") {
			continue
		}
		if b[k] != v {
			t.Errorf("%s: %v then %v with the same seed", k, v, b[k])
		}
	}
}

func TestMultiprocBodyRunsTheCoordinatorsPlans(t *testing.T) {
	corpus, err := buildCorpus(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	job, err := runMPJob(corpus, 1, 4, []phase{{Rounds: 1}, {Seconds: 0.2, Staged: true}}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Msgs == 0 || job.Phases[0].Execs != int64(len(corpus)) {
		t.Fatalf("set-up pass: %d msgs, %d executions", job.Msgs, job.Phases[0].Execs)
	}
	for k, ph := range job.Phases {
		if ph.Failed != 0 || ph.AllocBytes <= 0 {
			t.Errorf("phase %d: %d wrong outputs, %g bytes allocated", k, ph.Failed, ph.AllocBytes)
		}
	}
	st := job.Phases[1]
	for i, e := range corpus {
		if len(st.Makespans[i]) == 0 || len(st.Stages[i]) != len(e.Stages) || len(st.Stages[i][0]) != len(st.Makespans[i]) {
			t.Fatalf("%s: %d makespans, stage samples %d×?", e.Name, len(st.Makespans[i]), len(st.Stages[i]))
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside perfbench/")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
}
