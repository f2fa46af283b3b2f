package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/term"
)

// Chaos conformance for the collective-algorithm portfolio (coll/algo.go,
// docs/ALGORITHMS.md): every alternative implementation must survive the
// same fault regimes the butterfly does — delayed, reordered, duplicated
// and dropped envelopes — and still produce, bit for bit, the fault-free
// result. The chunked and pipelined algorithms are the interesting prey
// here: they ship many more envelopes per stage than the butterfly, and
// their correctness leans on the tag discipline, never on timing.

// portfolioCase is one alternative algorithm of the portfolio table, with
// the smallest block it accepts at group size p and its runner through
// the one dispatcher.
type portfolioCase struct {
	name string
	minM func(p int) int
	run  func(c coll.Comm, v algebra.Value) algebra.Value
}

// portfolioCases enumerates every non-butterfly row of the cost table.
func portfolioCases() []portfolioCase {
	var out []portfolioCase
	for _, collective := range cost.Collectives() {
		for _, a := range cost.Algos(collective)[1:] {
			out = append(out, portfolioCase{
				name: string(a),
				minM: func(p int) int {
					m := 1
					for !cost.Applicable(collective, a, cost.Params{P: p, M: m}) {
						m++
					}
					return m
				},
				run: func(c coll.Comm, v algebra.Value) algebra.Value {
					return sel.Run(c, collective, a, algebra.Add, v, 3)
				},
			})
		}
	}
	return out
}

// faultFreeOn runs one collective body on the bare native backend — the
// bitwise baseline of the portfolio sweeps.
func faultFreeOn(p int, in []algebra.Value, run func(c coll.Comm, v algebra.Value) algebra.Value) []algebra.Value {
	out := make([]algebra.Value, p)
	backend.New(p).Run(func(pr *backend.Proc) {
		out[pr.Rank()] = run(pr, in[pr.Rank()])
	})
	return out
}

// TestPortfolioConformsUnderChaos sweeps every portfolio algorithm on a
// power-of-two and a non-power-of-two group (the rabenseifner fold path)
// across the full profile × seed sweep, on both backends, demanding
// bitwise equality with the fault-free run.
func TestPortfolioConformsUnderChaos(t *testing.T) {
	for _, tc := range portfolioCases() {
		for _, p := range []int{4, 7} {
			m := tc.minM(p) + 3 // uneven chunks: m does not divide by p
			in := blocks(p, m)
			want := faultFreeOn(p, in, tc.run)
			t.Run(fmt.Sprintf("%s/p=%d/m=%d", tc.name, p, m), func(t *testing.T) {
				for _, prof := range sweepProfiles() {
					for seed := int64(0); seed < sweepSeeds(); seed++ {
						got := make([]algebra.Value, p)
						chaos.OnNative(p, prof, seed, func(c *chaos.Comm) {
							got[c.Rank()] = tc.run(c, in[c.Rank()])
						})
						for r := 0; r < p; r++ {
							if !algebra.Equal(want[r], got[r]) {
								t.Fatalf("%s/seed=%d rank %d: chaos %v, fault-free %v",
									prof.Name, seed, r, got[r], want[r])
							}
						}
					}
					gotV := make([]algebra.Value, p)
					chaos.OnVirtual(p, prof, 0, func(c *chaos.Comm) {
						gotV[c.Rank()] = tc.run(c, in[c.Rank()])
					})
					for r := 0; r < p; r++ {
						if !algebra.Equal(want[r], gotV[r]) {
							t.Fatalf("%s virtual rank %d: chaos %v, fault-free %v",
								prof.Name, r, gotV[r], want[r])
						}
					}
				}
			})
		}
	}
}

// TestSelectedProgramConformsUnderChaos runs a whole auto-selected
// program — the execution path serving actually takes — under chaos:
// RunStagesSelected with non-butterfly selections must match the plain
// butterfly executor's fault-free result bitwise.
func TestSelectedProgramConformsUnderChaos(t *testing.T) {
	prog := term.Seq{
		term.Reduce{Op: algebra.Add, All: true},
		term.Scan{Op: algebra.Add},
		term.Reduce{Op: algebra.Add},
	}
	for _, p := range []int{4, 7} {
		m := 4 * p
		in := blocks(p, m)
		params := cost.Params{Ts: 1, Tw: 1, P: p, M: m} // cheap start-ups: every alternative wins
		sels := sel.ForTerm(prog, params)
		nonBF := 0
		for _, s := range sels {
			if s.Algo != cost.AlgoButterfly {
				nonBF++
			}
		}
		if nonBF == 0 {
			t.Fatalf("p=%d m=%d: expected non-butterfly selections, got %v", p, m, sels)
		}
		want := faultFree(prog, p, in)
		for _, prof := range sweepProfiles() {
			seeds := sweepSeeds() / 2
			if seeds < 2 {
				seeds = 2
			}
			for seed := int64(0); seed < seeds; seed++ {
				got := make([]algebra.Value, p)
				chaos.OnNative(p, prof, seed, func(c *chaos.Comm) {
					got[c.Rank()] = core.RunStagesSelected(c, prog, in[c.Rank()], sels)
				})
				for r := 0; r < p; r++ {
					if !algebra.Equal(want[r], got[r]) {
						t.Fatalf("p=%d %s/seed=%d rank %d: selected-under-chaos %v, fault-free butterfly %v\n  selections: %v",
							p, prof.Name, seed, r, got[r], want[r], sels)
					}
				}
			}
		}
	}
}
