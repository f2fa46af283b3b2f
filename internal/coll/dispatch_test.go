package coll_test

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/machine"
)

// allReduceWith runs the all-reduction with algorithm a through sel.Run on
// a p-member virtual machine and returns every member's result and the
// run's message and word counts.
func allReduceWith(blocks []algebra.Vec, a cost.Algo) ([]algebra.Value, machine.Result) {
	out := make([]algebra.Value, len(blocks))
	res := machine.New(len(blocks), machine.Params{Ts: 4, Tw: 1}).Run(func(pr *machine.Proc) {
		out[pr.Rank()] = sel.Run(coll.World(pr), cost.CollAllReduce, a, algebra.Add, blocks[pr.Rank()].Clone(), 3)
	})
	return out, res
}

func randIntBlocks(rng *rand.Rand, p, m int) []algebra.Vec {
	out := make([]algebra.Vec, p)
	for i := range out {
		v := make(algebra.Vec, m)
		for j := range v {
			v[j] = float64(rng.Intn(9) - 4)
		}
		out[i] = v
	}
	return out
}

func sumBlocks(blocks []algebra.Vec) algebra.Vec {
	out := append(algebra.Vec(nil), blocks[0]...)
	for _, b := range blocks[1:] {
		for j := range out {
			out[j] += b[j]
		}
	}
	return out
}

// TestAllReduceWithNewAlgorithms: every all-reduce algorithm of the cost
// table, applicable on this shape, leaves the elementwise sum on every
// member.
func TestAllReduceWithNewAlgorithms(t *testing.T) {
	const p, m = 6, 14
	blocks := randIntBlocks(rand.New(rand.NewSource(306)), p, m)
	want := sumBlocks(blocks)
	for _, a := range cost.Algos(cost.CollAllReduce) {
		if !cost.Applicable(cost.CollAllReduce, a, cost.Params{P: p, M: m}) {
			t.Fatalf("%s: not applicable on p=%d, m=%d", a, p, m)
		}
		out, _ := allReduceWith(blocks, a)
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("%s: proc %d = %v, want %v", a, r, v, want)
			}
		}
	}
}

// TestAllReduceWithSelectsAlgorithm: naming the ring runs the ring — the
// same sum as the butterfly, but over a different message pattern.
func TestAllReduceWithSelectsAlgorithm(t *testing.T) {
	blocks := randIntBlocks(rand.New(rand.NewSource(204)), 4, 8)
	want := sumBlocks(blocks)
	traffic := map[cost.Algo][2]int{}
	for _, a := range []cost.Algo{cost.AlgoButterfly, cost.AlgoRing} {
		out, res := allReduceWith(blocks, a)
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("%s: proc %d = %v, want %v", a, r, v, want)
			}
		}
		traffic[a] = [2]int{res.Messages, res.Words}
	}
	if traffic[cost.AlgoRing] == traffic[cost.AlgoButterfly] {
		t.Fatalf("ring moved the butterfly's traffic %v: it did not run", traffic[cost.AlgoRing])
	}
}
