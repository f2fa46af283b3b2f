package cost

import (
	"math"

	"repro/internal/term"
)

// This file extends the §4.1 calculus from "the butterfly cost" to a
// portfolio of collective algorithms. The paper prices every collective on
// one topology; the related work (Träff 2024; Lowery & Langou; the
// poplibs ring programs) shows no single algorithm wins across the whole
// (p, m) plane. Each Algo below carries its own closed-form cost line in
// the same a·ts + b·m·tw + c·m shape as Table 1, so the calibrated
// parameters that validate the rules also rank the algorithms — the
// selection layer (package coll/sel) simply takes the argmin.

// Algo names a collective-algorithm implementation.
type Algo string

// The algorithm portfolio.
const (
	// AlgoButterfly is the §4.1 butterfly/binomial implementation the
	// paper's estimates assume: log p phases of one transfer and one
	// combine. The baseline every alternative is measured against.
	AlgoButterfly Algo = "butterfly"
	// AlgoRabenseifner is the reduce-scatter + allgather all-reduction
	// (recursive halving then recursive doubling): 2·log p start-ups but
	// only ~2m words and ~m combines per member — the classic large-block
	// all-reduce for power-of-two-ish groups (Rabenseifner; Träff 2024).
	AlgoRabenseifner Algo = "rabenseifner"
	// AlgoRing is the unidirectional ring reduce-scatter + allgather:
	// 2(p−1) start-ups, ~2m words — bandwidth-optimal, start-up-heavy.
	AlgoRing Algo = "ring"
	// AlgoRingBi is the bidirectional ring (as in the poplibs ring
	// program): both ring directions carry half the block concurrently,
	// halving the per-step transfer volume on full-duplex links.
	AlgoRingBi Algo = "ring-bi"
	// AlgoPipeline is the chain-pipelined segmented reduction with the
	// Lowery–Langou segment-count choice: k segments stream down a rank
	// chain, overlapping transfer and combine across segments.
	AlgoPipeline Algo = "pipeline"
)

// Collective names for the selection layer.
const (
	CollAllReduce = "allreduce"
	CollReduce    = "reduce"
)

// algoSpec is one row of the portfolio: an algorithm for one collective,
// the block shape it needs and its closed-form cost line. The row is the
// algorithm's whole identity — §4.1 says the estimate "must be repeated"
// for every implementation, so an implementation is named by its line —
// and coll/sel.Run is the one place that executes it.
type algoSpec struct {
	collective string
	algo       Algo
	// perMember is the number of block words each group member must at
	// least receive: the chunked algorithms split the block across the
	// group (ring-bi across the group twice, once per direction). Every
	// alternative to the butterfly also needs p ≥ 2 and a non-empty block.
	perMember int
	// line is the cost at parameters p; see AlgoCost for the formulas.
	line func(p Params) float64
}

// algoTable is the portfolio, each collective's butterfly first.
var algoTable = []algoSpec{
	{CollAllReduce, AlgoButterfly, 0, Reduce},
	{CollAllReduce, AlgoRabenseifner, 1, rabenseifnerCost},
	{CollAllReduce, AlgoRing, 1, func(p Params) float64 { return ringCost(p, 2) }},
	{CollAllReduce, AlgoRingBi, 2, func(p Params) float64 { return ringCost(p, 1) }},
	{CollReduce, AlgoButterfly, 0, Reduce},
	{CollReduce, AlgoPipeline, 0, func(p Params) float64 { return pipelineCost(p, PipelineSegments(p)) }},
}

// Collectives lists the collectives the portfolio covers, in table order.
func Collectives() []string {
	var out []string
	for _, s := range algoTable {
		if len(out) == 0 || out[len(out)-1] != s.collective {
			out = append(out, s.collective)
		}
	}
	return out
}

// Algos lists the candidate algorithms for a collective, baseline first.
// Unknown collectives have only the butterfly.
func Algos(collective string) []Algo {
	var out []Algo
	for _, s := range algoTable {
		if s.collective == collective {
			out = append(out, s.algo)
		}
	}
	if out == nil {
		return []Algo{AlgoButterfly}
	}
	return out
}

// lookup finds the table row of (collective, a).
func lookup(collective string, a Algo) (*algoSpec, bool) {
	for i := range algoTable {
		if s := &algoTable[i]; s.collective == collective && s.algo == a {
			return s, true
		}
	}
	return nil, false
}

// ReduceCollective names the collective a reduction stage performs.
func ReduceCollective(r term.Reduce) string {
	if r.All {
		return CollAllReduce
	}
	return CollReduce
}

// PipelineSegments is the Lowery–Langou segment-count choice for the
// chain-pipelined reduction: the pipeline runs p−2+k slots of
// ts + (m/k)·(tw+1) each, and the k minimizing the product is
// k* = sqrt((p−2)·m·(tw+1)/ts) — more segments when start-ups are cheap
// relative to the per-word work, fewer when they are dear. The integer
// neighbor with the lower cost line is returned, clamped to [1, m].
func PipelineSegments(p Params) int {
	if p.P < 2 || p.M < 1 {
		return 1
	}
	if p.Ts <= 0 {
		return p.M // free start-ups: segment all the way down
	}
	kStar := math.Sqrt(float64(p.P-2) * p.m() * (p.Tw + 1) / p.Ts)
	lo := int(math.Floor(kStar))
	best, bestCost := 1, math.Inf(1)
	for _, k := range []int{lo, lo + 1} {
		if k < 1 {
			k = 1
		}
		if k > p.M {
			k = p.M
		}
		if c := pipelineCost(p, k); c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}

// pipelineCost is the chain-pipeline line at k segments:
// (p−2+k)·(ts + (m/k)·(tw+1)).
func pipelineCost(p Params, k int) float64 {
	return float64(p.P-2+k) * (p.Ts + p.m()/float64(k)*(p.Tw+1))
}

// Applicable reports whether the algorithm can run the collective at the
// given group and block size, independent of the operator: the butterfly
// always can; an alternative needs its table row, p ≥ 2 and a block of at
// least max(1, perMember·p) words. The alternatives additionally require
// an elementwise base operator, which is the caller's side condition (see
// coll/sel) — a derived tuple operator combines whole tuples and cannot
// be applied chunkwise.
func Applicable(collective string, a Algo, p Params) bool {
	if a == AlgoButterfly {
		return true
	}
	s, ok := lookup(collective, a)
	return ok && s.applies(p)
}

// applies is Applicable for the row's own algorithm.
func (s *algoSpec) applies(p Params) bool {
	return s.algo == AlgoButterfly || p.P >= 2 && p.M >= max(1, s.perMember*p.P)
}

// AlgoCost is the closed-form §4.1-model cost line of running the
// collective with the algorithm at parameters p. It returns ok = false
// when the algorithm does not apply (see Applicable). The lines, with
// q = (p−1)/p the reduce-scatter volume fraction:
//
//	butterfly     log p · (ts + m·(tw+1))            (equation (16))
//	rabenseifner  2·log p·ts + 2q·m·tw + q·m  [+ fold for non-pow2 p]
//	ring          2(p−1)·ts + 2q·m·tw + q·m
//	ring-bi       2(p−1)·ts +  q·m·tw + q·m          (full-duplex links)
//	pipeline      (p−2+k)·(ts + (m/k)·(tw+1)),  k = PipelineSegments
//
// The ring-bi line prices both directions' concurrent transfers at the
// volume of one (the full-duplex assumption); on hosts whose links
// serialize the two directions the measured crossover shifts — exactly
// what calib.ValidateAlgos reports.
func AlgoCost(collective string, a Algo, p Params) (float64, bool) {
	s, ok := lookup(collective, a)
	switch {
	case !ok && a == AlgoButterfly: // a collective outside the table
		return Reduce(p), true
	case !ok || !s.applies(p):
		return 0, false
	}
	return s.line(p), true
}

// rabenseifnerCost is the recursive halving/doubling line, with the
// fold/unfold surcharge for non-power-of-two groups.
func rabenseifnerCost(p Params) float64 {
	q := float64(p.P-1) / float64(p.P)
	c := 2*p.LogP()*p.Ts + 2*q*p.m()*p.Tw + q*p.m()
	if p.P&(p.P-1) != 0 {
		// Fold the surplus ranks into leaders first and unfold after:
		// one full-block exchange each way plus one combine.
		c += 2*p.Ts + 2*p.m()*p.Tw + p.m()
	}
	return c
}

// ringCost is the ring line with passes·q·m words on the wire: 2 for the
// unidirectional ring (reduce-scatter, then allgather), 1 for the
// bidirectional one, whose two directions overlap on full-duplex links.
func ringCost(p Params, passes float64) float64 {
	q := float64(p.P-1) / float64(p.P)
	return 2*float64(p.P-1)*p.Ts + passes*q*p.m()*p.Tw + q*p.m()
}

// BreakEven finds, by bisection over the block size m within [1, hi],
// the smallest m at which the algorithm's predicted cost undercuts the
// butterfly's at fixed ts, tw and p — the model's crossover point for
// this (collective, algorithm, p). It returns 0 when the algorithm never
// wins in range. Bisection applies because every alternative's line has
// a strictly smaller per-word slope than the butterfly's wherever it
// wins at all: once ahead, it stays ahead as m grows.
func BreakEven(collective string, a Algo, base Params, hi int) int {
	wins := func(m int) bool {
		p := base
		p.M = m
		c, ok := AlgoCost(collective, a, p)
		if !ok {
			return false
		}
		bf, _ := AlgoCost(collective, AlgoButterfly, p)
		return c < bf
	}
	if !wins(hi) {
		return 0
	}
	if wins(1) {
		return 1
	}
	lo, up := 1, hi // !wins(lo), wins(up)
	for up-lo > 1 {
		mid := (lo + up) / 2
		if wins(mid) {
			up = mid
		} else {
			lo = mid
		}
	}
	return up
}

// BestAlgo returns the cheapest applicable algorithm for the collective
// at parameters p under the calibrated model, and its predicted cost.
// The butterfly is always a candidate, so the result never costs more
// than the butterfly line; with elementwise = false only the butterfly
// qualifies (the alternatives all split or segment the block, which is
// only sound for elementwise base operators).
func BestAlgo(collective string, p Params, elementwise bool) (Algo, float64) {
	best, bestCost := AlgoButterfly, math.Inf(1)
	for i := range algoTable {
		s := &algoTable[i]
		if s.collective != collective || !elementwise && s.algo != AlgoButterfly || !s.applies(p) {
			continue
		}
		// Strictly cheaper only: the butterfly, first in the table, keeps
		// ties.
		if c := s.line(p); c < bestCost {
			best, bestCost = s.algo, c
		}
	}
	if math.IsInf(bestCost, 1) { // a collective outside the table
		return AlgoButterfly, Reduce(p)
	}
	return best, bestCost
}

// OfTermAuto estimates t like OfTerm, but prices every unbalanced
// reduction stage over an elementwise base operator at its best-known
// algorithm's cost line instead of the butterfly's — the scoring function
// of the auto-selecting engine (rules.Engine.Auto). Every other stage is
// priced exactly as OfTerm, so OfTermAuto(t) ≤ OfTerm(t) always, and the
// two agree on programs without eligible reductions.
func OfTermAuto(t term.Term, p Params) float64 {
	total, _ := ofStagesAuto(t, p, p.m())
	return total
}

func ofStagesAuto(t term.Term, p Params, b float64) (float64, float64) {
	total := 0.0
	for _, stage := range term.Stages(t) {
		var c float64
		c, b = ofStageAuto(stage, p, b)
		total += c
	}
	return total, b
}

func ofStageAuto(t term.Term, p Params, b float64) (float64, float64) {
	if s, ok := t.(term.Seq); ok {
		return ofStagesAuto(s, p, b)
	}
	if r, ok := t.(term.Reduce); ok && SelectableReduce(r) {
		pp := p
		pp.M = int(math.Round(b))
		_, c := BestAlgo(ReduceCollective(r), pp, true)
		return c, b
	}
	return ofStage(t, p, b)
}

// SelectableReduce reports whether a reduction stage is eligible for
// algorithm selection: unbalanced (the balanced variants exist precisely
// to host the rules' non-associative derived operators) and over an
// elementwise base operator, so the block may be split or segmented.
func SelectableReduce(r term.Reduce) bool {
	return !r.Balanced && r.Op != nil && r.Op.Elem != nil && r.Op.Arity == 1
}
