package sel

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/term"
)

// traffic is a run's message and word counts: the signature that tells
// which algorithm actually ran.
type traffic struct{ msgs, words int }

// substrate runs one SPMD body per member on a p-member backend.
type substrate struct {
	name string
	run  func(p int, body func(c coll.Comm) algebra.Value) ([]algebra.Value, traffic)
}

var substrates = []substrate{
	{"virtual", func(p int, body func(c coll.Comm) algebra.Value) ([]algebra.Value, traffic) {
		out := make([]algebra.Value, p)
		res := machine.New(p, machine.Params{Ts: 4, Tw: 1}).Run(func(pr *machine.Proc) {
			out[pr.Rank()] = body(coll.World(pr))
		})
		return out, traffic{res.Messages, res.Words}
	}},
	{"native", func(p int, body func(c coll.Comm) algebra.Value) ([]algebra.Value, traffic) {
		out := make([]algebra.Value, p)
		res := backend.New(p).Run(func(pr *backend.Proc) {
			out[pr.Rank()] = body(pr)
		})
		return out, traffic{res.Messages, res.Words}
	}},
}

// intBlocks builds one m-word block per member with small integer entries,
// so every combining order gives the same bits.
func intBlocks(p, m int) []algebra.Vec {
	in := make([]algebra.Vec, p)
	for r := range in {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((r*7+j*3)%5 + 1)
		}
		in[r] = b
	}
	return in
}

// runAll executes Run on every member over fresh copies of in.
func runAll(s substrate, in []algebra.Vec, collective string, a cost.Algo) ([]algebra.Value, traffic) {
	return s.run(len(in), func(c coll.Comm) algebra.Value {
		return Run(c, collective, a, algebra.Add, in[c.Rank()].Clone(), 3)
	})
}

// reference is the term semantics of the collective; Undef positions
// (the non-root members of a rooted reduction) are don't-cares.
func reference(collective string, in []algebra.Vec) []algebra.Value {
	xs := make([]algebra.Value, len(in))
	for i, v := range in {
		xs[i] = v
	}
	return term.Eval(term.Reduce{Op: algebra.Add, All: collective == cost.CollAllReduce}, xs)
}

// checkDefined fails unless got equals want bitwise wherever ref is
// defined.
func checkDefined(t *testing.T, ref, want, got []algebra.Value) {
	t.Helper()
	for r := range ref {
		if algebra.IsUndef(ref[r]) {
			continue
		}
		if !algebra.Equal(got[r], want[r]) || !algebra.Equal(got[r], ref[r]) {
			t.Fatalf("rank %d: got %v, butterfly %v, semantics %v", r, got[r], want[r], ref[r])
		}
	}
}

// TestRunEveryTableRow walks every (collective, algorithm) row of the cost
// table through Run on the virtual and native backends. Every result must
// equal the butterfly's bitwise wherever the term semantics defines one,
// and every alternative must really run (its traffic differs from the
// butterfly's): a table row without an implementation either panics in
// Run or is caught here running the butterfly in disguise.
func TestRunEveryTableRow(t *testing.T) {
	for _, s := range substrates {
		for _, p := range []int{3, 4, 7, 8} {
			in := intBlocks(p, 4*p+3) // ≥ 2 words per member, remainder chunks
			for _, collective := range cost.Collectives() {
				ref := reference(collective, in)
				bf, bfTraffic := runAll(s, in, collective, cost.AlgoButterfly)
				for _, a := range cost.Algos(collective) {
					t.Run(fmt.Sprintf("%s/p=%d/%s@%s", s.name, p, collective, a), func(t *testing.T) {
						got, tr := runAll(s, in, collective, a)
						checkDefined(t, ref, bf, got)
						if a != cost.AlgoButterfly && tr == bfTraffic {
							t.Errorf("%s moved the butterfly's traffic %+v: it did not run", a, tr)
						}
					})
				}
			}
		}
	}
}

// TestRunFallsBackOnSmallBlocks: a block one word short of what an
// algorithm needs (cost.Applicable) runs the butterfly instead — same
// results, same traffic.
func TestRunFallsBackOnSmallBlocks(t *testing.T) {
	for _, s := range substrates {
		for _, p := range []int{3, 4, 7, 8} {
			for _, collective := range cost.Collectives() {
				for _, a := range cost.Algos(collective)[1:] {
					m := 4 * p
					for cost.Applicable(collective, a, cost.Params{P: p, M: m}) {
						m--
					}
					t.Run(fmt.Sprintf("%s/p=%d/%s@%s/m=%d", s.name, p, collective, a, m), func(t *testing.T) {
						in := intBlocks(p, m)
						bf, bfTraffic := runAll(s, in, collective, cost.AlgoButterfly)
						got, tr := runAll(s, in, collective, a)
						checkDefined(t, reference(collective, in), bf, got)
						if tr != bfTraffic {
							t.Errorf("traffic %+v, want the butterfly's %+v", tr, bfTraffic)
						}
					})
				}
			}
		}
	}
}

// TestRunFallsBackOnNonElementwise: the alternatives split the block,
// which only an elementwise operator allows; any other operator runs the
// butterfly.
func TestRunFallsBackOnNonElementwise(t *testing.T) {
	tupleSum := &algebra.Op{Name: "tuple+", Arity: 1, Fn: algebra.Add.Fn}
	in := intBlocks(4, 16)
	run := func(a cost.Algo) traffic {
		_, tr := substrates[0].run(4, func(c coll.Comm) algebra.Value {
			return Run(c, cost.CollAllReduce, a, tupleSum, in[c.Rank()].Clone(), 0)
		})
		return tr
	}
	if ring, bf := run(cost.AlgoRing), run(cost.AlgoButterfly); ring != bf {
		t.Errorf("ring over a non-elementwise operator moved %+v, want the butterfly's %+v", ring, bf)
	}
}

// TestRunUnknownCollectivePanics: a collective outside the table has no
// implementation to fall back to.
func TestRunUnknownCollectivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	substrates[0].run(2, func(c coll.Comm) algebra.Value {
		return Run(c, "bcast", cost.AlgoButterfly, algebra.Add, algebra.Vec{1}, 0)
	})
}
