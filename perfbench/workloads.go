package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/rules"
	"repro/internal/serve"
)

// workloads names the benchmark's workloads in run order.
var workloads = []string{"serve-hot", "serve-cold", "exec-native", "exec-multiproc"}

const (
	// nativeP and multiprocP are the exec workloads' rank counts: eight
	// goroutines share the host's cores in process, four OS processes
	// keep the multi-process run within two cores' reach.
	nativeP    = 8
	multiprocP = 4
)

// outcome is everything one run measured.
type outcome struct {
	Attempted, Failed int64
	FirstErr          error
	// Metrics holds the reported metrics (end-to-end on an untraced run,
	// per-layer on a traced one).
	Metrics map[string]float64
	// Counts are the exact counts, which must repeat bit for bit across
	// runs with the same seed.
	Counts map[string]float64
	// Samples records how many samples each statistic rests on.
	Samples map[string]float64
	// Windows are the timed windows of an untraced run.
	Windows []window
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Counts: map[string]float64{}, Samples: map[string]float64{}}
}

func (o *outcome) fail(n int64, err error) {
	o.Failed += n
	if n > 0 && o.FirstErr == nil {
		o.FirstErr = err
	}
}

// runWorkload runs one workload for seconds, traced or not.
func runWorkload(name string, seed int64, seconds float64, traced bool) (*outcome, error) {
	switch name {
	case "serve-hot":
		return runServe(false, seed, seconds, traced)
	case "serve-cold":
		return runServe(true, seed, seconds, traced)
	case "exec-native":
		return runExec(false, seed, seconds, traced)
	case "exec-multiproc":
		return runExec(true, seed, seconds, traced)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// A run of the untraced workloads is `rounds` rounds, each a fresh
// set-up followed by a timed window of seconds/rounds, after one more
// such round that warms the process and is not reported. Throughput,
// median and tail are taken per window and reported as the median over
// the windows, and setup_s as the median set-up: the host this was
// tuned on has its CPU taken away in bursts of a few seconds, which a
// median over windows rides out and a whole-run percentile does not.
const rounds = 12

// window is one timed window's end-to-end figures.
type window struct {
	RPS  float64 `json:"rps"`
	P50  float64 `json:"p50_us"`
	Tail float64 `json:"tail_us"`
	// Q is the tail percentile, N the sample count behind it (per plan
	// on exec).
	Q float64 `json:"q"`
	N int     `json:"n"`
	// Setup is the set-up time (s) of the window's round.
	Setup float64 `json:"setup_s"`
}

// setE2E stores the medians over windows of seconds/rounds each and
// over their set-ups.
func setE2E(o *outcome, ws []window, seconds, allocBytes float64, ops int64) {
	var rps, p50, tl, q, n, setups []float64
	for _, w := range ws {
		rps, p50, tl = append(rps, w.RPS), append(p50, w.P50), append(tl, w.Tail)
		q, n, setups = append(q, w.Q), append(n, float64(w.N)), append(setups, w.Setup)
	}
	m := o.Metrics
	m["throughput_rps"] = median(rps)
	m["latency_p50_us"] = median(p50)
	m["latency_tail_us"] = median(tl)
	m["setup_s"] = median(setups)
	m["alloc_kb_per_op"] = allocBytes / float64(ops) / 1024
	o.Samples["windows"] = float64(len(ws))
	o.Samples["window_s"] = seconds / rounds
	o.Windows = ws
	o.Samples["tail_quantile_min"] = minOf(q)
	o.Samples["tail_samples_min"] = minOf(n)
	o.Samples["operations"] = float64(ops)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// runServe is serve-hot (cold=false) or serve-cold: an in-process
// server on loopback, its pool warmed in set-up, driven by the
// closed-loop clients.
func runServe(cold bool, seed int64, seconds float64, traced bool) (*outcome, error) {
	o := newOutcome()
	pool, err := buildPool()
	if err != nil {
		return nil, err
	}
	st := stream{pool: pool, seed: seed, cold: cold}
	// The stream continues across windows, so serve-cold never repeats
	// a key within the run.
	var next atomic.Int64
	setup := func() (*serveHarness, float64, error) {
		t0 := time.Now()
		h, err := startServe()
		if err != nil {
			return nil, 0, err
		}
		failed, ferr := h.warm(pool)
		o.Attempted += int64(len(pool))
		o.fail(failed, ferr)
		return h, time.Since(t0).Seconds(), nil
	}
	if !traced {
		var ws []window
		var alloc float64
		var ops int64
		for k := 0; k <= rounds; k++ {
			h, sec, err := setup()
			if err != nil {
				return nil, err
			}
			r := h.load(st, &next, secs(seconds/rounds), nil)
			h.close()
			o.Attempted += r.OK + r.Failed
			o.fail(r.Failed, r.FirstErr)
			if k == 0 {
				continue // the warm-up round
			}
			p99, q := tail(r.LatUs)
			ws = append(ws, window{RPS: float64(r.OK) / r.Wall.Seconds(), P50: median(r.LatUs), Tail: p99, Q: q, N: len(r.LatUs), Setup: sec})
			alloc += float64(r.AllocBytes)
			ops += r.OK + r.Failed
		}
		setE2E(o, ws, seconds, alloc, ops)
		return o, nil
	}

	// Traced run: an untraced and a traced window of the same load give
	// the tracing overhead; the traced window's spans split each round
	// trip into handler and HTTP.
	h, _, err := setup()
	if err != nil {
		return nil, err
	}
	defer h.close()
	m := o.Metrics
	u := h.load(st, &next, secs(seconds/4), nil)
	tr := NewTracer()
	t := h.load(st, &next, secs(seconds/4), tr)
	for _, r := range []loadResult{u, t} {
		o.Attempted += r.OK + r.Failed
		o.fail(r.Failed, r.FirstErr)
	}
	if err := checkPlans(o, h, pool); err != nil {
		return nil, err
	}
	if _, err := layerLedger(o, seed, pool, seconds/10, false, true); err != nil {
		return nil, err
	}
	m["trace.overhead_us"] = median(t.LatUs) - median(u.LatUs)
	m["serve.http_us"] = median(SelfTimes(tr.Spans())["serve.request"])
	setServeCounters(m, u.Before, t.After)
	o.Samples["latency"] = float64(len(u.LatUs) + len(t.LatUs))
	return o, nil
}

// checkPlans checks each distinct pool plan's term against the original
// program under term.Eval at the processor count the requests ask for.
func checkPlans(o *outcome, h *serveHarness, pool []poolItem) error {
	pl := h.srv.Planner()
	cfg := rules.VerifyConfig{Sizes: []int{requestP}, Trials: 4, Seed: 7, BlockWords: 3, RelTol: 1e-9}
	ts := serve.DefaultConfig().Machine.Ts
	seen := map[string]bool{}
	for _, it := range pool {
		key := it.Key(ts)
		if seen[key] {
			continue
		}
		seen[key] = true
		plan, _, err := pl.PlanTermOpts(it.Prog, it.Machine(ts), it.Strategy, it.Select)
		if err != nil {
			return err
		}
		o.Attempted++
		if err := rules.VerifyEquivalence(it.Prog, plan.Term, cfg); err != nil {
			o.fail(1, fmt.Errorf("plan for %q: %w", it.Src, err))
		}
	}
	return nil
}

// runExec is exec-native (multiproc=false) or exec-multiproc: the
// corpus, optimized in set-up, run repeatedly on the workload's
// substrate. On exec-multiproc each round is one job: its spawn,
// connect, plan rebuild and warm-up pass are the round's set-up, and
// the timed window runs inside the same job.
func runExec(multiproc bool, seed int64, seconds float64, traced bool) (*outcome, error) {
	o := newOutcome()
	p := nativeP
	if multiproc {
		p = multiprocP
	}
	if traced {
		pool, err := buildPool()
		if err != nil {
			return nil, err
		}
		overhead, err := layerLedger(o, seed, pool, seconds/4, multiproc, false)
		if err != nil {
			return nil, err
		}
		o.Metrics["trace.overhead_us"] = overhead
		return o, nil
	}
	var ws []window
	var alloc float64
	var ops int64
	for k := 0; k <= rounds; k++ {
		t0 := time.Now()
		corpus, err := buildCorpus(seed, p)
		if err != nil {
			return nil, err
		}
		var warm, r phaseResult
		var setup float64
		if multiproc {
			job, err := runMPJob(corpus, seed, p, []phase{{Rounds: 1}, {Seconds: seconds / rounds}}, secs(seconds/rounds))
			if err != nil {
				return nil, err
			}
			warm, r = job.Phases[0], job.Phases[1]
			setup = time.Since(t0).Seconds() - r.WallNs/1e9
		} else {
			x := newNativeExec(p)
			warm = x.run(corpus, phase{Rounds: 1})
			setup = time.Since(t0).Seconds()
			r = x.run(corpus, phase{Seconds: seconds / rounds})
		}
		for _, ph := range []phaseResult{warm, r} {
			o.Attempted += ph.Execs
			o.fail(ph.Failed, fmt.Errorf("%d wrong outputs", ph.Failed))
		}
		if k == 0 {
			continue // the warm-up round
		}
		p50, tl, minN, q := execLatency(r)
		ws = append(ws, window{RPS: execRate(r), P50: p50, Tail: tl, Q: q, N: minN, Setup: setup})
		alloc += r.AllocBytes
		ops += r.Execs
	}
	setE2E(o, ws, seconds, alloc, ops)
	return o, nil
}

// execRate is the rate a phase ran plans at: executions ÷ the sum of
// their makespans. The barrier-synchronized start each execution waits
// for is left out like it is from the makespan: it is how the benchmark
// times an execution, not part of running a plan, and on a host whose
// CPU is taken by other tenants it swung the wall-clock rate of
// exec-multiproc by half.
func execRate(r phaseResult) float64 {
	total := 0.0
	for _, xs := range r.Makespans {
		for _, x := range xs {
			total += x
		}
	}
	return float64(r.Execs) / (total / 1e9)
}

// execLatency reduces a phase to the geomean over plans of each plan's
// median and tail makespan (µs), with the smallest per-plan sample count
// and the tail percentile it allowed.
func execLatency(r phaseResult) (p50, tl float64, minN int, q float64) {
	var meds, tails []float64
	minN = -1
	for _, xs := range r.Makespans {
		if minN < 0 || len(xs) < minN {
			minN = len(xs)
		}
	}
	q = tailQuantile(minN)
	for _, xs := range r.Makespans {
		meds = append(meds, median(xs)/1e3)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		tails = append(tails, quantile(s, q)/1e3)
	}
	return geomean(meds), geomean(tails), minN, q
}

// layerLedger fills the per-layer metrics every traced run reports: the
// serve and optimizer probes over the pool, the exec ledger of
// the corpus on the workload's substrate (native p=8 for the serve
// workloads) with share seconds per phase, the ping-pong and kernel
// probes and the cost-model fit. A serving workload takes the serve
// counters and the HTTP share from its own load instead; the others get
// them from the probes. It returns the exec ledger's tracing overhead.
func layerLedger(o *outcome, seed int64, pool []poolItem, share float64, multiproc, serving bool) (float64, error) {
	m := o.Metrics
	sp, err := probeServe(pool)
	if err != nil {
		return 0, err
	}
	o.Attempted += sp.Attempts
	o.fail(sp.Failed, sp.FirstErr)
	for k, v := range sp.Metrics {
		m[k] = v
	}
	for k, v := range sp.Counts {
		o.Counts[k] = v
	}
	if !serving {
		hu, err := httpProbe(pool, seed)
		if err != nil {
			return 0, err
		}
		m["serve.http_us"] = hu
	}

	m["algebra.add.ns_per_word"] = kernelNsPerWord(algebra.Add)
	m["algebra.mul.ns_per_word"] = kernelNsPerWord(algebra.Mul)
	nat16, nat4096 := pingpongNative(16), pingpongNative(4096)
	m["backend.pingpong.m16_us"], m["backend.pingpong.m4096_us"] = nat16, nat4096
	m["backend.allocs_per_msg"] = allocsPerMsgNative()
	o.Counts["backend.allocs_per_msg"] = m["backend.allocs_per_msg"]
	mp16, spawn, err := pingpongMP(16)
	if err != nil {
		return 0, err
	}
	mp4096, _, err := pingpongMP(4096)
	if err != nil {
		return 0, err
	}
	m["mpbackend.pingpong.m16_us"], m["mpbackend.pingpong.m4096_us"] = mp16, mp4096
	m["mpbackend.spawn_ms"] = spawn

	// The exec ledger: untraced, staged and unoptimized phases of the
	// corpus on the workload's substrate.
	p := nativeP
	if multiproc {
		p = multiprocP
	}
	corpus, err := buildCorpus(seed, p)
	if err != nil {
		return 0, err
	}
	phases := []phase{
		{Variant: variantPlan, Seconds: share},
		{Variant: variantPlan, Staged: true, Seconds: share},
		{Variant: variantOriginal, Seconds: share},
	}
	// pass is one checked pass of the corpus: the warm-up, and the
	// source of the exact traffic and work counts (the timed phases also
	// carry their loop control).
	var pass phaseResult
	var res []phaseResult
	f := fitMachine(nat16, nat4096, m["algebra.add.ns_per_word"])
	if multiproc {
		job, err := runMPJob(corpus, seed, p, []phase{{Rounds: 1}}, 30*time.Second)
		if err != nil {
			return 0, err
		}
		pass = job.Phases[0]
		pass.Msgs, pass.Words, pass.Ops = job.Msgs, job.Words, job.Ops
		if job, err = runMPJob(corpus, seed, p, phases, secs(3*share)); err != nil {
			return 0, err
		}
		res = job.Phases
		work := 0.0
		for _, r := range res {
			work += r.WallNs
		}
		m["mpbackend.spawn_ms"] = (job.WallNs - work) / 1e6
		f = fitMachine(mp16, mp4096, m["algebra.add.ns_per_word"])
	} else {
		x := newNativeExec(p)
		pass = x.run(corpus, phase{Rounds: 1})
		for _, ph := range phases {
			res = append(res, x.run(corpus, ph))
		}
	}
	for _, r := range append(res, pass) {
		o.Attempted += r.Execs
		o.fail(r.Failed, fmt.Errorf("exec ledger: %d wrong outputs", r.Failed))
	}
	o.Counts["coll.msgs"], o.Counts["coll.words"], o.Counts["algebra.ops"] = float64(pass.Msgs), float64(pass.Words), pass.Ops
	m["coll.msgs"], m["coll.words"], m["algebra.ops"] = o.Counts["coll.msgs"], o.Counts["coll.words"], o.Counts["algebra.ops"]
	stageMed, overhead, err := execLedger(m, corpus, res[0], res[1], res[2])
	if err != nil {
		return 0, err
	}
	m["cost.stage_rel_err"] = stageRelErr(corpus, p, stageMed, f)
	apps, nonbf := 0, 0
	for _, e := range corpus {
		apps += e.Apps
		nonbf += nonButterfly(e.Sels)
	}
	m["rules.applications"], m["sel.nonbutterfly"] = float64(apps), float64(nonbf)
	o.Counts["rules.applications"], o.Counts["sel.nonbutterfly"] = float64(apps), float64(nonbf)
	return overhead, nil
}

// execLedger derives the per-stage, remainder and speed-up metrics from
// an untraced (u), a staged (t) and an unoptimized (n) phase. It returns
// each plan stage's median time in µs and the tracing overhead: the
// staged phase's geomean plan makespan minus the untraced one's.
func execLedger(m map[string]float64, corpus []*entry, u, t, n phaseResult) ([][]float64, float64, error) {
	occ := map[string][]float64{}
	var unexplained []float64
	stageMed := make([][]float64, len(corpus))
	speedups := map[int][]float64{}
	var pu, pt []float64
	for i, e := range corpus {
		size := fmt.Sprintf("m%d", e.M)
		stageMed[i] = make([]float64, len(e.Stages))
		for s, c := range e.Class {
			stageMed[i][s] = median(t.Stages[i][s]) / 1e3
			if c != "" {
				occ["coll."+c+"."+size+"_us"] = append(occ["coll."+c+"."+size+"_us"], stageMed[i][s])
			}
			if len(e.StageSels[s]) > 0 && e.StageSels[s][0].Algo != cost.AlgoButterfly {
				occ["coll.selected."+size+"_us"] = append(occ["coll.selected."+size+"_us"], stageMed[i][s])
			}
		}
		for k, ms := range t.Makespans[i] {
			sum := 0.0
			for s := range e.Stages {
				sum += t.Stages[i][s][k]
			}
			unexplained = append(unexplained, (ms-sum)/1e3)
		}
		pu = append(pu, median(u.Makespans[i])/1e3)
		pt = append(pt, median(t.Makespans[i])/1e3)
		if e.Rewritten {
			speedups[e.M] = append(speedups[e.M], median(n.Makespans[i])/median(u.Makespans[i]))
		}
	}
	for _, name := range stageMetricNames() {
		if len(occ[name]) == 0 {
			return nil, 0, fmt.Errorf("no %s stage in this corpus", name)
		}
		m[name] = geomean(occ[name])
	}
	m["core.unexplained_us"] = median(unexplained)
	m["rules.fused_speedup.m16"] = geomean(speedups[16])
	m["rules.fused_speedup.m4096"] = geomean(speedups[4096])
	return stageMed, geomean(pt) - geomean(pu), nil
}

// stageMetricNames lists the per-stage metrics: every class at both
// sizes, and the non-butterfly selected reductions at m=4096 (at m=16
// the selector always keeps the butterfly).
func stageMetricNames() []string {
	var out []string
	for _, c := range stageClasses {
		for _, m := range execSizes {
			out = append(out, fmt.Sprintf("coll.%s.m%d_us", c, m))
		}
	}
	return append(out, "coll.selected.m4096_us")
}

// httpProbe measures the loopback HTTP share of a hit for workloads that
// do not serve: a short traced hot load on a fresh server.
func httpProbe(pool []poolItem, seed int64) (float64, error) {
	h, err := startServe()
	if err != nil {
		return 0, err
	}
	defer h.close()
	if _, err := h.warm(pool); err != nil {
		return 0, err
	}
	tr := NewTracer()
	var next atomic.Int64
	r := h.load(stream{pool: pool, seed: seed}, &next, time.Second, tr)
	if r.Failed > 0 {
		return 0, r.FirstErr
	}
	return median(SelfTimes(tr.Spans())["serve.request"]), nil
}
