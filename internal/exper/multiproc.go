package exper

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the multi-process substrate of the algorithm-portfolio
// sweep: the same head-to-head measurement as NativeAlgoMeasurer, but
// with the ranks as separate OS processes (package mpbackend), where
// every message is a real serialization through the kernel. That is the
// regime the paper's cost model assumes — tw > 0 — and where the
// bandwidth-oriented algorithms (rings, pipeline) actually overtake the
// butterfly, which they never do on the in-process backend with its
// by-reference sends.
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

// MultiProcAlgoMeasurer measures across process boundaries: per
// pairing, one process group runs the butterfly and one the algorithm
// (MeasureCollectiveMP, each with its own warm-up repetition), so the
// sweep records the crossovers the multi-process transport actually
// exhibits.
func MultiProcAlgoMeasurer(reps int) AlgoMeasurer {
	return func(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
		return func(collective string, a cost.Algo, m, segments int) (bfNs, algNs float64, err error) {
			if bfNs, err = MeasureCollectiveMP(collective, cost.AlgoButterfly, p, m, 0, reps); err != nil {
				return 0, 0, err
			}
			algNs, err = MeasureCollectiveMP(collective, a, p, m, segments, reps)
			return bfNs, algNs, err
		}
	}
}
