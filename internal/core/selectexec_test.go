package core

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/rules"
)

func vecInput(p, m int) []algebra.Value {
	in := make([]algebra.Value, p)
	for r := range in {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((r*5+j*3)%7 + 1)
		}
		in[r] = b
	}
	return in
}

// TestOptimizeOptsAuto: auto-selection populates the selections, scores
// with the portfolio model, and is never worse than the butterfly score.
func TestOptimizeOptsAuto(t *testing.T) {
	prog := NewProgram().Scan(algebra.Add).AllReduce(algebra.Add)
	m := Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	opt, err := prog.OptimizeOpts(m, OptimizeOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Selection) == 0 {
		t.Fatal("auto optimization recorded no selections")
	}
	plain := prog.Optimize(m)
	if opt.EstimateAfter > plain.EstimateAfter {
		t.Fatalf("auto estimate %.0f exceeds butterfly estimate %.0f", opt.EstimateAfter, plain.EstimateAfter)
	}
	for _, s := range opt.Selection {
		if s.Predicted > s.Butterfly {
			t.Fatalf("selection %v predicted worse than butterfly", s)
		}
	}
	// The summary mentions the selection.
	if sum := opt.Summary(); len(sum) == 0 {
		t.Fatal("empty summary")
	}
}

// TestRunSelectedBitwise: executing the selected algorithms yields
// bit-identical results to the butterfly executor, on both backends.
func TestRunSelectedBitwise(t *testing.T) {
	for _, p := range []int{4, 7, 8} { // pow2 and folded
		prog := NewProgram().AllReduce(algebra.Add).Reduce(algebra.Add)
		mach := Machine{Ts: 203.6, Tw: 0.007, P: p, M: 4096}
		opt, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		nonBF := 0
		for _, s := range opt.Selection {
			if s.Algo != cost.AlgoButterfly {
				nonBF++
			}
		}
		if nonBF == 0 {
			t.Fatalf("p=%d: expected non-butterfly selections at m=4096, got %v", p, opt.Selection)
		}
		in := vecInput(p, 4096)
		plain, _ := opt.Program.Run(mach, in)
		selV, _ := opt.Program.RunSelected(mach, in, opt.Selection)
		selN, _ := opt.Program.RunNativeSelected(p, in, opt.Selection)
		for r := 0; r < p; r++ {
			if !algebra.Equal(plain[r], selV[r]) {
				t.Fatalf("p=%d rank %d: selected virtual differs from butterfly", p, r)
			}
			if !algebra.Equal(selV[r], selN[r]) {
				t.Fatalf("p=%d rank %d: selected native differs from selected virtual", p, r)
			}
		}
	}
}

// TestRunSelectedFallback: a selection whose shape requirement the
// run-time value cannot satisfy falls back to the butterfly rather than
// panicking — and still computes the right answer.
func TestRunSelectedFallback(t *testing.T) {
	prog := NewProgram().AllReduce(algebra.Add)
	mach := Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	sels := []sel.Selection{{Stage: 0, Collective: cost.CollAllReduce, Algo: cost.AlgoRabenseifner}}
	in := vecInput(8, 4) // 4 words < 8 ranks: rabenseifner cannot run
	got, _ := prog.RunSelected(mach, in, sels)
	want, _ := prog.Run(mach, in)
	for r := range want {
		if !algebra.Equal(got[r], want[r]) {
			t.Fatalf("rank %d: fallback result differs", r)
		}
	}
}

// TestRunSelectedIgnoresMismatchedSelections: a selection runs only on a
// selectable reduction and only as the stage's own collective. Naming the
// all-reduce ring on a rooted reduction, or any algorithm on a balanced
// one, leaves the stage on its §4.1 collective: same results, same
// traffic as the plain run.
func TestRunSelectedIgnoresMismatchedSelections(t *testing.T) {
	mach := Machine{Ts: 10, Tw: 1, P: 4, M: 32}
	in := vecInput(4, 32)
	for _, prog := range []Program{
		NewProgram().Reduce(algebra.Add),
		NewProgram().AllReduceBalanced(algebra.Add),
	} {
		sels := []sel.Selection{{Stage: 0, Collective: cost.CollAllReduce, Algo: cost.AlgoRing}}
		got, gotRes := prog.RunSelected(mach, in, sels)
		want, wantRes := prog.Run(mach, in)
		for r := range want {
			if !algebra.Equal(got[r], want[r]) {
				t.Fatalf("%s rank %d: %v, want %v", prog, r, got[r], want[r])
			}
		}
		if gotRes.Messages != wantRes.Messages || gotRes.Words != wantRes.Words {
			t.Errorf("%s: traffic %d msgs/%d words, plain run %d/%d", prog,
				gotRes.Messages, gotRes.Words, wantRes.Messages, wantRes.Words)
		}
	}
}

// TestRunSelectedEmptySelections routes through the plain executor.
func TestRunSelectedEmptySelections(t *testing.T) {
	prog := NewProgram().Scan(algebra.Add)
	mach := Machine{Ts: 10, Tw: 1, P: 4, M: 8}
	in := vecInput(4, 8)
	got, _ := prog.RunSelected(mach, in, nil)
	want, _ := prog.Run(mach, in)
	for r := range want {
		if !algebra.Equal(got[r], want[r]) {
			t.Fatalf("rank %d differs", r)
		}
	}
}

// TestAutoSearchNeverWorse: the searched auto plan scores no worse than
// the greedy auto plan, and both verify.
func TestAutoSearchNeverWorse(t *testing.T) {
	prog := NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
	mach := Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	vcfg := rules.VerifyConfig{Seed: 5, BlockWords: 3}
	greedy, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true, Verify: true, VerifyConfig: vcfg})
	if err != nil {
		t.Fatal(err)
	}
	searched, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true, Search: true, Verify: true, VerifyConfig: vcfg})
	if err != nil {
		t.Fatal(err)
	}
	if searched.EstimateAfter > greedy.EstimateAfter {
		t.Fatalf("searched auto plan %.0f worse than greedy auto plan %.0f",
			searched.EstimateAfter, greedy.EstimateAfter)
	}
	if searched.Search == nil {
		t.Fatal("searched plan missing stats")
	}
}
