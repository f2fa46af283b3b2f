package exper

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the wall-clock side of the algorithm portfolio: it runs
// each portfolio algorithm (coll/algo.go) head-to-head against the §4.1
// butterfly on the native backend, the measurement under both the
// BENCH_native algorithm records and calib's crossover validation.

// MeasureCollective measures the wall-clock makespan in nanoseconds of
// one collective executed with the given portfolio algorithm (through
// sel.Run) on the native backend machine nm, taking the minimum over reps
// runs. segments is the pipeline's segment count and is ignored by every
// other algorithm. The caller is expected to warm the machine up with one
// discarded call so mailbox and arena allocation stays out of the
// minimum.
func MeasureCollective(nm *backend.Machine, collective string, a cost.Algo, op *algebra.Op, in []algebra.Value, segments, reps int) float64 {
	if reps < 1 {
		reps = 1
	}
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		res := nm.Run(func(pr *backend.Proc) {
			sel.Run(pr, collective, a, op, in[pr.Rank()], segments)
		})
		if ns := float64(res.Makespan.Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// FirstWinCrossover locates the smallest block size at which wins(m)
// holds: won are the sweep verdicts at the block sizes ms, giving the
// bracket, and bisection with fresh wins() measurements sharpens the
// boundary inside it, so the resolution does not depend on the sweep's
// granularity. It returns 0 when the algorithm never wins in the sweep
// and ms[0] when it already wins at the smallest tested size.
func FirstWinCrossover(ms []int, won []bool, wins func(m int) bool) int {
	first := -1
	for i, w := range won {
		if w {
			first = i
			break
		}
	}
	switch {
	case first < 0:
		return 0
	case first == 0:
		return ms[0]
	}
	lo, hi := ms[first-1], ms[first] // !wins(lo), wins(hi)
	for i := 0; i < 8 && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		if wins(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// NativeAlgoConfig sizes the algorithm-portfolio wall-clock sweep.
type NativeAlgoConfig struct {
	// Ps are the group sizes; include a non-power-of-two to exercise the
	// rabenseifner fold path.
	Ps []int
	// Ms are the block sizes swept; per algorithm only the applicable
	// subset is measured (the chunked algorithms need m ≥ p or 2p).
	Ms []int
	// Reps is the number of repetitions per measurement (minimum taken).
	Reps int
	// Ts and Tw are the calibrated cost-model parameters recorded with
	// each row and used for the predicted crossovers (they do not affect
	// the measurement — the host's real costs apply).
	Ts, Tw float64
	// Transport selects the native machine's transport mode; the zero
	// value is the zero-copy default. MultiProcAlgos ignores it — a
	// process boundary always serializes.
	Transport backend.TransportMode
}

// DefaultNativeAlgoConfig sweeps the portfolio on 7 and 8 ranks across
// block sizes spanning the start-up-dominated and bandwidth-dominated
// regimes.
func DefaultNativeAlgoConfig() NativeAlgoConfig {
	return NativeAlgoConfig{Ps: []int{7, 8}, Ms: []int{16, 256, 1024, 4096, 16384}, Reps: 7}
}

// NativeAlgos measures every portfolio algorithm head-to-head against
// the butterfly on the native backend — the wall-clock records behind
// docs/ALGORITHMS.md's crossover table. Rows pair up like the fusion
// suite's: per (collective, algorithm, p, m) a "lhs" row carries the
// butterfly and an "rhs" row the algorithm, with Speedup the ratio. Each
// rhs row additionally carries the predicted and measured crossover
// block sizes of its (collective, algorithm, p) group — the smallest m
// at which the algorithm first beats the butterfly, sharpened by
// bisection between sweep points; 0 means it never won in range.
func NativeAlgos(cfg NativeAlgoConfig) ([]NativeBenchRecord, error) {
	if len(cfg.Ps) == 0 || len(cfg.Ms) == 0 {
		return nil, fmt.Errorf("exper: the algorithm sweep needs group and block sizes")
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	op := algebra.Add
	maxM := cfg.Ms[len(cfg.Ms)-1]
	var out []NativeBenchRecord
	for _, p := range cfg.Ps {
		if p < 2 {
			return nil, fmt.Errorf("exper: the algorithm sweep needs p ≥ 2, got %d", p)
		}
		nm := backend.New(p)
		nm.Transport = cfg.Transport
		base := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: p}
		for _, collective := range cost.Collectives() {
			for _, a := range cost.Algos(collective)[1:] {
				var recs []NativeBenchRecord
				var ms []int
				var won []bool
				measure := func(m int) (bfNs, algNs float64) {
					pp := base
					pp.M = m
					segs := cost.PipelineSegments(pp)
					in := mpbackend.SeededInputs(11, p, m)
					MeasureCollective(nm, collective, a, op, in, segs, 1) // warm-up
					bfNs = MeasureCollective(nm, collective, cost.AlgoButterfly, op, in, 0, cfg.Reps)
					algNs = MeasureCollective(nm, collective, a, op, in, segs, cfg.Reps)
					return bfNs, algNs
				}
				for _, m := range cfg.Ms {
					pp := base
					pp.M = m
					if !cost.Applicable(collective, a, pp) {
						continue
					}
					bfNs, algNs := measure(m)
					ms = append(ms, m)
					won = append(won, algNs < bfNs)
					params := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: p, M: m}
					recs = append(recs,
						NativeBenchRecord{
							Backend: "native", Reps: cfg.Reps, Params: params,
							Op: collective + "(+)", Rule: algoRule(collective, a), Side: "lhs",
							P: p, M: m, NsPerOp: bfNs, Speedup: 1,
						},
						NativeBenchRecord{
							Backend: "native", Reps: cfg.Reps, Params: params,
							Op: fmt.Sprintf("%s(+)@%s", collective, a), Rule: algoRule(collective, a), Side: "rhs",
							P: p, M: m, NsPerOp: algNs, Speedup: bfNs / algNs,
						})
				}
				if len(ms) == 0 {
					continue
				}
				pred := cost.BreakEven(collective, a, base, maxM)
				meas := FirstWinCrossover(ms, won, func(m int) bool {
					bfNs, algNs := measure(m)
					return algNs < bfNs
				})
				for i := range recs {
					if recs[i].Side == "rhs" {
						recs[i].PredCross = pred
						recs[i].MeasCross = meas
					}
				}
				out = append(out, recs...)
			}
		}
	}
	return out, nil
}

// algoRule names an algorithm sweep's record group in the Rule field,
// e.g. "Algo-allreduce/ring-bi".
func algoRule(collective string, a cost.Algo) string {
	return fmt.Sprintf("Algo-%s/%s", collective, a)
}

// FormatAlgoCrossovers renders the per-(algorithm, p) crossover summary
// of an algorithm sweep's records: one line per group with the predicted
// and measured break-even block sizes.
func FormatAlgoCrossovers(recs []NativeBenchRecord) string {
	out := fmt.Sprintf("%-28s %4s %12s %12s\n", "Algorithm", "p", "predicted m", "measured m")
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Side != "rhs" {
			continue
		}
		key := fmt.Sprintf("%s/%d", r.Rule, r.P)
		if seen[key] {
			continue
		}
		seen[key] = true
		pred, meas := fmt.Sprintf("%d", r.PredCross), fmt.Sprintf("%d", r.MeasCross)
		if r.PredCross == 0 {
			pred = "never"
		}
		if r.MeasCross == 0 {
			meas = "never"
		}
		out += fmt.Sprintf("%-28s %4d %12s %12s\n", r.Rule, r.P, pred, meas)
	}
	return out
}
