// Package sel is the algorithm-selection layer: it picks, for every
// eligible reduction stage of a program, the cheapest collective algorithm
// from the calibrated portfolio (cost/algo.go) at that stage's (p, m) —
// turning the rule engine's target shape from "the butterfly form" into
// "the best-known form on this machine". Selections are pure data: Run is
// the one place a chosen algorithm executes (for the stage executor
// core.RunStagesSelected, the wall-clock sweeps and the multi-process
// bodies alike), the serving layer records selections in plans and cache
// keys, and collbench sweeps them against measurements.
//
// Only unbalanced reductions over elementwise base operators are eligible
// (cost.SelectableReduce): every portfolio alternative splits or segments
// the block, which is unsound for the derived tuple operators the rules
// introduce. The butterfly is always in the candidate set, so a selection
// is never predicted worse than the butterfly baseline.
package sel

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/cost"
	"repro/internal/term"
)

// Selection records the algorithm chosen for one eligible reduction
// stage of a program.
type Selection struct {
	// Stage is the stage's index in the flattened stage list (the order
	// the executor runs them in).
	Stage int `json:"stage"`
	// Collective is the collective kind, cost.CollReduce or
	// cost.CollAllReduce.
	Collective string `json:"collective"`
	// Algo is the chosen algorithm.
	Algo cost.Algo `json:"algo"`
	// Segments is the pipeline's Lowery–Langou segment count; 0 for the
	// other algorithms.
	Segments int `json:"segments,omitempty"`
	// M is the per-processor block size (words) the stage is predicted to
	// see, tracked through gather/scatter reshaping.
	M int `json:"m"`
	// Predicted and Butterfly are the model costs of the chosen algorithm
	// and of the butterfly baseline at (p, M); Predicted ≤ Butterfly.
	Predicted float64 `json:"predicted"`
	Butterfly float64 `json:"butterfly"`
}

func (s Selection) String() string {
	out := fmt.Sprintf("stage %d %s m=%d: %s", s.Stage, s.Collective, s.M, s.Algo)
	if s.Segments > 0 {
		out += fmt.Sprintf(" k=%d", s.Segments)
	}
	if s.Algo != cost.AlgoButterfly {
		out += fmt.Sprintf(" (predicted %.0f vs butterfly %.0f)", s.Predicted, s.Butterfly)
	}
	return out
}

// Choose picks the cheapest applicable algorithm for one collective at
// parameters p, assuming an elementwise operator. The butterfly is always
// a candidate, so Predicted ≤ Butterfly.
func Choose(collective string, p cost.Params) Selection {
	a, c := cost.BestAlgo(collective, p, true)
	bf, _ := cost.AlgoCost(collective, cost.AlgoButterfly, p)
	s := Selection{Collective: collective, Algo: a, M: p.M, Predicted: c, Butterfly: bf}
	if a == cost.AlgoPipeline {
		s.Segments = cost.PipelineSegments(p)
	}
	return s
}

// Run executes one collective with algorithm a on this member's block v:
// the execution side of the portfolio table in cost/algo.go. A rooted
// reduction leaves its result on the first processor. segments is the
// pipeline's segment count; the other algorithms ignore it. Run falls back
// to the butterfly whenever the run-time shape fails the algorithm's
// requirement (cost.Applicable on this group and block size) or the block
// is not a Vec under an elementwise operator. The check is on the local
// value, so SPMD callers must feed uniformly shaped blocks — the same
// contract the collectives themselves have.
func Run(c coll.Comm, collective string, a cost.Algo, op *algebra.Op, v algebra.Value, segments int) algebra.Value {
	if a != cost.AlgoButterfly {
		vec, ok := v.(algebra.Vec)
		if !ok || op.Elem == nil || !cost.Applicable(collective, a, cost.Params{P: c.Size(), M: len(vec)}) {
			a = cost.AlgoButterfly
		}
	}
	switch a {
	case cost.AlgoButterfly:
		switch collective {
		case cost.CollAllReduce:
			return coll.AllReduce(c, op, v)
		case cost.CollReduce:
			return coll.Reduce(c, 0, op, v)
		}
	case cost.AlgoRabenseifner:
		return coll.AllReduceRabenseifner(c, op, v)
	case cost.AlgoRing:
		return coll.AllReduceRing(c, op, v)
	case cost.AlgoRingBi:
		return coll.AllReduceRingBi(c, op, v)
	case cost.AlgoPipeline:
		return coll.ReducePipelined(c, op, v, segments)
	}
	panic(fmt.Sprintf("sel: no implementation of %s for collective %q", a, collective))
}

// ForTerm walks the flattened stages of t, tracking the per-processor
// block size the way cost.OfTerm does (gather/scatter reshape it), and
// returns a Selection for every eligible reduction stage — including
// stages where the butterfly itself wins, so callers can see the whole
// decision. A nil result means no stage was eligible.
func ForTerm(t term.Term, p cost.Params) []Selection {
	var out []Selection
	b := float64(p.M)
	for idx, stage := range term.Stages(t) {
		if r, ok := stage.(term.Reduce); ok && cost.SelectableReduce(r) {
			pp := p
			pp.M = int(math.Round(b))
			s := Choose(cost.ReduceCollective(r), pp)
			s.Stage = idx
			out = append(out, s)
		}
		_, b = cost.StageCost(stage, p, b)
	}
	return out
}

// Total sums the predicted costs of the selections — the portfolio's
// contribution to an auto-scored estimate.
func Total(sels []Selection) (predicted, butterfly float64) {
	for _, s := range sels {
		predicted += s.Predicted
		butterfly += s.Butterfly
	}
	return predicted, butterfly
}
