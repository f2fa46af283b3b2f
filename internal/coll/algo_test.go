package coll

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/machine"
)

func elementwiseMax(blocks []algebra.Vec) algebra.Vec {
	out := append(algebra.Vec(nil), blocks[0]...)
	for _, b := range blocks[1:] {
		for j := range out {
			if b[j] > out[j] {
				out[j] = b[j]
			}
		}
	}
	return out
}

func TestAllReduceRabenseifnerAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16} {
		for _, m := range []int{n, 2*n + 3, 4 * n} {
			blocks := randBlocks(rng, n, m)
			want := elementwiseSum(blocks)
			out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
				return AllReduceRabenseifner(pr, algebra.Add, blocks[pr.Rank()].Clone())
			})
			for r, v := range out {
				if !algebra.Equal(v, want) {
					t.Fatalf("p=%d m=%d: rabenseifner proc %d = %v, want %v", n, m, r, v, want)
				}
			}
		}
	}
}

func TestAllReduceRabenseifnerMax(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, n := range []int{4, 6} { // pow2 and folded
		m := 2 * n
		blocks := randBlocks(rng, n, m)
		want := elementwiseMax(blocks)
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return AllReduceRabenseifner(pr, algebra.Max, blocks[pr.Rank()].Clone())
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: max rabenseifner proc %d = %v, want %v", n, r, v, want)
			}
		}
	}
}

func TestAllReduceRingBiAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 12, 16} {
		for _, m := range []int{2 * n, 4*n + 5} {
			blocks := randBlocks(rng, n, m)
			want := elementwiseSum(blocks)
			out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
				return AllReduceRingBi(pr, algebra.Add, blocks[pr.Rank()].Clone())
			})
			for r, v := range out {
				if !algebra.Equal(v, want) {
					t.Fatalf("p=%d m=%d: ring-bi proc %d = %v, want %v", n, m, r, v, want)
				}
			}
		}
	}
}

func TestReducePipelinedAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for _, segs := range []int{1, 2, 3, 100} { // 100 clamps to m
			m := 10
			blocks := randBlocks(rng, n, m)
			want := elementwiseSum(blocks)
			out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
				return ReducePipelined(pr, algebra.Add, blocks[pr.Rank()].Clone(), segs)
			})
			for r, v := range out {
				if r == 0 {
					if !algebra.Equal(v, want) {
						t.Fatalf("p=%d k=%d: pipelined root = %v, want %v", n, segs, v, want)
					}
				} else if !algebra.Equal(v, blocks[r]) {
					t.Fatalf("p=%d k=%d: proc %d value changed: %v", n, segs, r, v)
				}
			}
		}
	}
}

// TestReducePipelinedMatchesReduce: bitwise agreement with the binomial
// tree on integer inputs.
func TestReducePipelinedMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	n, m := 6, 13
	blocks := randBlocks(rng, n, m)
	run := func(pipelined bool) Value {
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			if pipelined {
				return ReducePipelined(pr, algebra.Add, blocks[pr.Rank()].Clone(), 4)
			}
			return Reduce(pr, 0, algebra.Add, blocks[pr.Rank()].Clone())
		})
		return out[0]
	}
	tree, pipe := run(false), run(true)
	if !algebra.Equal(tree, pipe) {
		t.Fatalf("pipelined %v differs from binomial %v", pipe, tree)
	}
}

func TestAlgoShapePanics(t *testing.T) {
	cases := []struct {
		name string
		body func(c Comm)
	}{
		{"rabenseifner-short", func(c Comm) { AllReduceRabenseifner(c, algebra.Add, algebra.Vec{1, 2}) }},
		{"rabenseifner-scalar", func(c Comm) { AllReduceRabenseifner(c, algebra.Add, algebra.Scalar(1)) }},
		{"ring-bi-short", func(c Comm) { AllReduceRingBi(c, algebra.Add, algebra.Vec{1, 2, 3}) }},
		{"ring-scalar", func(c Comm) { AllReduceRing(c, algebra.Add, algebra.Scalar(1)) }},
		{"pipeline-scalar", func(c Comm) { ReducePipelined(c, algebra.Add, algebra.Scalar(1), 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			vm := machine.New(4, machine.Params{})
			vm.Run(func(proc *machine.Proc) { tc.body(World(proc)) })
		})
	}
}

// TestRabenseifnerBeatsButterflyOnLargeBlocks: the model-level claim —
// 2·log p start-ups but ~2m bandwidth — holds on the virtual machine.
func TestRabenseifnerBeatsButterflyOnLargeBlocks(t *testing.T) {
	params := machine.Params{Ts: 10, Tw: 4}
	p, m := 16, 1<<14
	makespan := func(body func(c Comm, x Value) Value) float64 {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			return body(pr, make(algebra.Vec, m))
		})
		return res.Makespan
	}
	rab := makespan(func(c Comm, x Value) Value { return AllReduceRabenseifner(c, algebra.Add, x) })
	bf := makespan(func(c Comm, x Value) Value { return AllReduce(c, algebra.Add, x) })
	if rab >= bf {
		t.Fatalf("rabenseifner (%g) should beat butterfly (%g) on large blocks", rab, bf)
	}
}
