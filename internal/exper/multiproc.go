package exper

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the multi-process half of the algorithm-portfolio
// measurement: the same head-to-head sweep as NativeAlgos, but with the
// ranks as separate OS processes (package mpbackend), where every message
// is a real serialization through the kernel. That is the regime the
// paper's cost model assumes — tw > 0 — and where the bandwidth-oriented
// algorithms (rings, pipeline) actually overtake the butterfly, which
// they never do on the in-process backend with its by-reference sends.
//
// Any binary calling into this file must invoke mpbackend.MaybeWorker()
// first thing in main (or TestMain): the measurements re-execute the
// running binary to spawn ranks.

// MeasureCollectiveMP measures the wall-clock makespan in nanoseconds of
// one collective executed with the given portfolio algorithm across p
// rank processes: one process group runs a warm-up plus reps
// barrier-synchronized repetitions, each repetition's makespan is the
// maximum over ranks, and the minimum over the timed repetitions is
// returned — the same discipline as MeasureCollective, minus the shared
// address space. Inputs are the seeded blocks of the native sweep
// (seed 11), regenerated inside each rank.
func MeasureCollectiveMP(collective string, a cost.Algo, p, m, segments, reps int) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	res, err := mpbackend.Run("collective", p, mpbackend.CollectiveParams{
		Collective: collective, Algo: string(a), Op: "add",
		M: m, Segments: segments, Reps: reps, Seed: 11,
	}, mpbackend.Options{})
	if err != nil {
		return 0, fmt.Errorf("exper: multiproc %s@%s (p=%d m=%d): %w", collective, a, p, m, err)
	}
	return mpbackend.MinMakespan(res)
}

// MultiProcAlgos measures every portfolio algorithm head-to-head against
// the butterfly across process boundaries — the multi-process rows of
// BENCH_native.json, marked Backend "multiproc". Shape and semantics
// match NativeAlgos exactly: lhs rows carry the butterfly, rhs rows the
// algorithm with Speedup the ratio, and each rhs row carries its group's
// predicted and measured crossover block sizes. cfg.Ts/cfg.Tw should be
// the multi-process calibration's parameters, so the predicted crossovers
// are the ones the calibrated model would act on for this transport.
func MultiProcAlgos(cfg NativeAlgoConfig) ([]NativeBenchRecord, error) {
	if len(cfg.Ps) == 0 || len(cfg.Ms) == 0 {
		return nil, fmt.Errorf("exper: the algorithm sweep needs group and block sizes")
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	maxM := cfg.Ms[len(cfg.Ms)-1]
	var out []NativeBenchRecord
	for _, p := range cfg.Ps {
		if p < 2 {
			return nil, fmt.Errorf("exper: the algorithm sweep needs p ≥ 2, got %d", p)
		}
		base := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: p}
		for _, collective := range cost.Collectives() {
			for _, a := range cost.Algos(collective)[1:] {
				var recs []NativeBenchRecord
				var ms []int
				var won []bool
				measure := func(m int) (bfNs, algNs float64, err error) {
					pp := base
					pp.M = m
					segs := cost.PipelineSegments(pp)
					if bfNs, err = MeasureCollectiveMP(collective, cost.AlgoButterfly, p, m, 0, cfg.Reps); err != nil {
						return 0, 0, err
					}
					algNs, err = MeasureCollectiveMP(collective, a, p, m, segs, cfg.Reps)
					return bfNs, algNs, err
				}
				for _, m := range cfg.Ms {
					pp := base
					pp.M = m
					if !cost.Applicable(collective, a, pp) {
						continue
					}
					bfNs, algNs, err := measure(m)
					if err != nil {
						return nil, err
					}
					ms = append(ms, m)
					won = append(won, algNs < bfNs)
					params := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: p, M: m}
					recs = append(recs,
						NativeBenchRecord{
							Backend: "multiproc", Reps: cfg.Reps, Params: params,
							Op: collective + "(+)", Rule: algoRule(collective, a), Side: "lhs",
							P: p, M: m, NsPerOp: bfNs, Speedup: 1,
						},
						NativeBenchRecord{
							Backend: "multiproc", Reps: cfg.Reps, Params: params,
							Op: fmt.Sprintf("%s(+)@%s", collective, a), Rule: algoRule(collective, a), Side: "rhs",
							P: p, M: m, NsPerOp: algNs, Speedup: bfNs / algNs,
						})
				}
				if len(ms) == 0 {
					continue
				}
				pred := cost.BreakEven(collective, a, base, maxM)
				meas := FirstWinCrossover(ms, won, func(m int) bool {
					bfNs, algNs, err := measure(m)
					// A failed bisection probe counts as a loss: the
					// bracketing sweep measurements already succeeded, so
					// the reported crossover degrades to sweep resolution
					// instead of failing the whole suite.
					return err == nil && algNs < bfNs
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
