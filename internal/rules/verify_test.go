package rules

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// servedVerify is the served planner's verification setting.
var servedVerify = VerifyConfig{Seed: 11, Trials: 4, Sizes: []int{1, 2, 4, 8}, BlockWords: 3, RelTol: 1e-9}

// TestEmptyDerivationIsIdentity: over fixed-seed dense and sparse draws,
// greedy and searched, a derivation with no application returns the
// program itself — the contract that lets the verifier skip sampling
// it — and every derivation with applications still verifies.
func TestEmptyDerivationIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var progs []term.Seq
	for i := 0; i < 120; i++ {
		progs = append(progs, RandProgram(rng, 4))
	}
	for i := 0; i < 24; i++ {
		progs = append(progs, RandSparseProgram(rng, 8))
	}
	empty, rewritten := 0, 0
	for i, prog := range progs {
		params := cost.Params{Ts: 1000, Tw: 1, M: []int{16, 4096}[i%2], P: 8}
		e := NewCostGuidedEngine(params)
		check := func(how string, opt term.Term, apps []Application, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s %s: %v", how, prog, err)
				return
			}
			if len(apps) > 0 {
				rewritten++
				return
			}
			empty++
			if got, want := Canonical(term.Compose(opt)), Canonical(prog); got != want {
				t.Errorf("%s %s: empty derivation returned %q", how, want, got)
			}
		}
		opt, apps, err := VerifyOptimization(e, prog, servedVerify)
		check("greedy", opt, apps, err)
		opt, apps, _, err = VerifySearchOptimization(e, prog, servedVerify, SearchConfig{})
		check("search", opt, apps, err)
	}
	t.Logf("%d empty and %d non-empty derivations", empty, rewritten)
	if empty == 0 || rewritten == 0 {
		t.Fatalf("%d empty and %d non-empty derivations; the draws must cover both", empty, rewritten)
	}
}

// dropScan is a broken rule: scan(+) ; reduce(+) → reduce(+) loses the
// prefix sums, and its one-stage window is always cheaper.
var dropScan = Rule{
	Name: "Drop-Scan", Class: "Reduction", Window: 2,
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		s, ok1 := w[0].(term.Scan)
		r, ok2 := w[1].(term.Reduce)
		if !ok1 || !ok2 || s.Op != algebra.Add || r.Op != algebra.Add || r.All {
			return nil, false
		}
		return []term.Term{r}, true
	},
}

// TestBrokenRuleFailsVerification: skipping empty derivations leaves
// every rewrite checked, so a wrong rule still fails both the greedy and
// the searched verified entry points.
func TestBrokenRuleFailsVerification(t *testing.T) {
	e := NewCostGuidedEngine(cost.Params{Ts: 1000, Tw: 1, M: 64, P: 8})
	e.Rules = []Rule{dropScan}
	for _, prog := range []term.Seq{
		{term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add}},
		{term.Bcast{}, term.Map{F: IncFn}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add}},
	} {
		if _, apps, err := VerifyOptimization(e, prog, servedVerify); err == nil {
			t.Errorf("greedy: %s verified with %v", prog, apps)
		}
		if _, apps, _, err := VerifySearchOptimization(e, prog, servedVerify, SearchConfig{}); err == nil {
			t.Errorf("search: %s verified with %v", prog, apps)
		}
	}
}

// TestVerifyDeterministicPerSeed: the verifier's input source gives the
// same draws for the same seed and different draws for another.
func TestVerifyDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		var out []int
		cfg := VerifyConfig{Seed: seed, Trials: 3, Sizes: []int{4}, Gen: func(rng *rand.Rand, n int) []algebra.Value {
			in := make([]algebra.Value, n)
			for i := range in {
				x := rng.Intn(13) - 6
				out = append(out, x)
				in[i] = algebra.Scalar(float64(x))
			}
			return in
		}}
		if err := VerifyEquivalence(term.Seq{term.Scan{Op: algebra.Add}}, term.Seq{term.Scan{Op: algebra.Add}}, cfg); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := draw(5), draw(5), draw(6)
	if !slices.Equal(a, b) {
		t.Errorf("seed 5 drew %v, then %v", a, b)
	}
	if slices.Equal(a, c) {
		t.Errorf("seeds 5 and 6 drew the same inputs %v", a)
	}
	for _, x := range a {
		if x < -6 || x > 6 {
			t.Errorf("draw %d outside the domain [-6, 6]", x)
		}
	}
}
