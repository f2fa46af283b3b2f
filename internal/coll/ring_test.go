package coll

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/machine"
)

func randBlocks(rng *rand.Rand, p, m int) []algebra.Vec {
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

func elementwiseSum(blocks []algebra.Vec) algebra.Vec {
	out := append(algebra.Vec(nil), blocks[0]...)
	for _, b := range blocks[1:] {
		for j := range out {
			out[j] += b[j]
		}
	}
	return out
}

// ringReduceScatter runs only the reduce-scatter phase of the ring
// program in direction d and returns this member's finished chunk.
func ringReduceScatter(c Comm, op *algebra.Op, d int, vec algebra.Vec) algebra.Vec {
	h := newRingHalf(c, op, d, vec)
	for s := 0; s < c.Size()-1; s++ {
		h.sendReduce(s)
		h.recvReduce(s)
	}
	return h.acc[c.Rank()]
}

// reduceScatterFlat runs the ring reduce-scatter on every member and
// concatenates the finished chunks in rank order.
func reduceScatterFlat(n int, op *algebra.Op, d int, blocks []algebra.Vec) algebra.Vec {
	out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
		return ringReduceScatter(pr, op, d, blocks[pr.Rank()].Clone())
	})
	var flat algebra.Vec
	for _, v := range out {
		flat = append(flat, v.(algebra.Vec)...)
	}
	return flat
}

// TestReduceScatterAllSizes: after the ring's reduce-scatter phase, in
// either direction, member i holds chunk i of the elementwise reduction.
func TestReduceScatterAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 13, 16} {
		m := 2*n + 3 // remainder chunks exercised
		blocks := randBlocks(rng, n, m)
		want := elementwiseSum(blocks)
		for _, d := range []int{+1, -1} {
			if got := reduceScatterFlat(n, algebra.Add, d, blocks); !algebra.Equal(got, want) {
				t.Fatalf("p=%d d=%d: reduce-scatter = %v, want %v", n, d, got, want)
			}
		}
	}
}

func TestReduceScatterMax(t *testing.T) {
	n, m := 6, 12
	blocks := randBlocks(rand.New(rand.NewSource(202)), n, m)
	want := elementwiseMax(blocks)
	if got := reduceScatterFlat(n, algebra.Max, +1, blocks); !algebra.Equal(got, want) {
		t.Fatalf("max reduce-scatter = %v, want %v", got, want)
	}
}

// TestReduceScatterRejectsSmallBlocks: the ring splits the block into one
// chunk per member, so a shorter block is a caller error.
func TestReduceScatterRejectsSmallBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	vm := machine.New(4, machine.Params{})
	vm.Run(func(proc *machine.Proc) {
		AllReduceRing(World(proc), algebra.Add, algebra.Vec{1, 2})
	})
}

func TestAllReduceRingAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for _, n := range []int{1, 2, 3, 5, 6, 8, 12, 16} {
		m := 3 * n
		blocks := randBlocks(rng, n, m)
		want := elementwiseSum(blocks)
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return AllReduceRing(pr, algebra.Add, blocks[pr.Rank()].Clone())
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: ring allreduce proc %d = %v, want %v", n, r, v, want)
			}
		}
	}
}

// TestAllReduceRingCombineOrder pins the ring order of the combines with
// an associative but non-commutative elementwise operator: x ⊕ y = x
// keeps the leftmost operand. Chunk i starts at member i+1, travels the
// ring and is folded as (incoming ⊕ own) at every hop, so it finishes as
// member (i+1) mod p's chunk i.
func TestAllReduceRingCombineOrder(t *testing.T) {
	first := algebra.NewBase("first", func(x, y float64) float64 { return x })
	for _, n := range []int{2, 3, 4, 7} {
		m := 2*n + 1
		blocks := make([]algebra.Vec, n)
		for r := range blocks {
			blocks[r] = make(algebra.Vec, m)
			for j := range blocks[r] {
				blocks[r][j] = float64(100*r + j)
			}
		}
		want := make(algebra.Vec, m)
		for i := 0; i < n; i++ {
			off, sz := chunkBounds(m, n, i)
			copy(want[off:off+sz], blocks[(i+1)%n][off:off+sz])
		}
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return AllReduceRing(pr, first, blocks[pr.Rank()].Clone())
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: proc %d = %v, want %v", n, r, v, want)
			}
		}
	}
}

// TestRingBeatsButterflyOnLargeBlocks: ~2m bandwidth against m·log p.
func TestRingBeatsButterflyOnLargeBlocks(t *testing.T) {
	makespan := func(params machine.Params, p, m int, ring bool) float64 {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			if ring {
				return AllReduceRing(pr, algebra.Add, make(algebra.Vec, m))
			}
			return AllReduce(pr, algebra.Add, make(algebra.Vec, m))
		})
		return res.Makespan
	}
	params := machine.Params{Ts: 10, Tw: 4}
	p, m := 16, 1<<14
	if ring, bf := makespan(params, p, m, true), makespan(params, p, m, false); ring >= bf {
		t.Fatalf("ring (%g) should beat butterfly (%g) on large blocks", ring, bf)
	}
	// And the butterfly wins the start-up-dominated regime.
	params = machine.Params{Ts: 10000, Tw: 1}
	m = 64
	if ring, bf := makespan(params, p, m, true), makespan(params, p, m, false); bf >= ring {
		t.Fatalf("butterfly (%g) should beat ring (%g) on small blocks", bf, ring)
	}
}
