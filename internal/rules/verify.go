package rules

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/term"
)

// VerifyConfig controls randomized semantic-equality checking.
type VerifyConfig struct {
	// Sizes are the machine sizes (list lengths) to check; nil means
	// {1, 2, 3, 4, 5, 6, 7, 8, 16} filtered by Pow2Only.
	Sizes []int
	// Trials is the number of random inputs per size (default 25).
	Trials int
	// Seed seeds the input generator.
	Seed int64
	// BlockWords > 1 additionally checks vector blocks of that size.
	BlockWords int
	// Pow2Only restricts the default sizes to powers of two (required
	// for the Local rules).
	Pow2Only bool
	// RelTol, when positive, compares numeric results with a relative
	// tolerance instead of exactly — needed when deep operator chains
	// push floating-point values beyond the exactly representable range
	// and reassociation flips low-order bits.
	RelTol float64
	// Gen, when non-nil, generates the random input list for a machine
	// size instead of the default small-integer scalars — needed when
	// the program's operators work on other value shapes (matrices,
	// tuples). BlockWords is ignored when Gen is set.
	Gen func(rng *rand.Rand, n int) []algebra.Value
}

func (c VerifyConfig) sizes() []int {
	if c.Sizes != nil {
		return c.Sizes
	}
	if c.Pow2Only {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 16}
}

func (c VerifyConfig) trials() int {
	if c.Trials == 0 {
		return 25
	}
	return c.Trials
}

// VerifyEquivalence checks that lhs and rhs denote the same list function
// under the functional semantics, on random integral inputs, comparing
// modulo undetermined positions (the rules only promise the determined
// parts of their results, §3.5). It returns an error describing the first
// counterexample found, or nil.
func VerifyEquivalence(lhs, rhs term.Term, cfg VerifyConfig) error {
	cfg = shapeFor(lhs, cfg)
	rng := rand.New(&splitMix64{state: uint64(cfg.Seed)})
	for _, n := range cfg.sizes() {
		for trial := 0; trial < cfg.trials(); trial++ {
			var in []algebra.Value
			if cfg.Gen != nil {
				in = cfg.Gen(rng, n)
			} else {
				in = make([]algebra.Value, n)
				for i := range in {
					in[i] = algebra.Scalar(float64(rng.Intn(13) - 6))
				}
			}
			if err := compareOn(lhs, rhs, in, n, trial, cfg.RelTol); err != nil {
				return err
			}
			if cfg.Gen == nil && cfg.BlockWords > 1 {
				vin := make([]algebra.Value, n)
				for i := range vin {
					v := make(algebra.Vec, cfg.BlockWords)
					for j := range v {
						v[j] = float64(rng.Intn(13) - 6)
					}
					vin[i] = v
				}
				if err := compareOn(lhs, rhs, vin, n, trial, cfg.RelTol); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// splitMix64 is the verifier's input source: Steele, Lea and Flood's
// SplitMix64, one word of state that any seed starts directly. It stands
// in for math/rand's default source, whose seeding runs 607 steps to
// fill 4.9 KB of state — more than the few hundred draws a verification
// takes. Inputs stay deterministic per seed.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix64) Seed(seed int64) { s.state = uint64(seed) }

// shapeFor adapts a verification config to programs whose input shapes
// the default scalar generator cannot satisfy: a counts-carrying stage
// (reduce_scatterv, allgatherv) pins the machine size to len(counts)
// and demands vectors of the counts' shape, so the config is rewritten
// to that single size with a shape-matching generator. Explicit Gens
// are respected; programs without counts stages (halos run on any
// value at any size) pass through unchanged.
func shapeFor(lhs term.Term, cfg VerifyConfig) VerifyConfig {
	if cfg.Gen != nil {
		return cfg
	}
	counts, ok := progCounts(lhs)
	if !ok {
		return cfg
	}
	prog := term.Compose(lhs)
	cfg.Sizes = []int{len(counts)}
	cfg.Gen = func(rng *rand.Rand, n int) []algebra.Value {
		return SparseInputs(prog, rng, n)
	}
	return cfg
}

func compareOn(lhs, rhs term.Term, in []algebra.Value, n, trial int, relTol float64) error {
	l := term.Eval(lhs, in)
	r := term.Eval(rhs, in)
	equal := len(l) == len(r)
	if equal {
		for i := range l {
			if relTol > 0 {
				equal = algebra.EqualApproxModuloUndef(l[i], r[i], relTol)
			} else {
				equal = algebra.EqualModuloUndef(l[i], r[i])
			}
			if !equal {
				break
			}
		}
	}
	if !equal {
		return fmt.Errorf("rules: semantic mismatch at p=%d trial %d:\n  input: %v\n  lhs %s = %v\n  rhs %s = %v",
			n, trial, in, lhs, l, rhs, r)
	}
	return nil
}

// VerifyExhaustive checks the semantic equality of lhs and rhs on *every*
// input over a finite scalar domain, for every list length up to maxN —
// proof by enumeration rather than sampling. With domain {-1, 0, 1, 2}
// and maxN = 4 that is 4 + 16 + 64 + 256 inputs, enough to kill any
// counterexample expressible with four distinct values on four
// processors (the algebra of the rules is oblivious to magnitudes, so
// small domains are highly discriminating).
func VerifyExhaustive(lhs, rhs term.Term, domain []float64, maxN int) error {
	for n := 1; n <= maxN; n++ {
		in := make([]algebra.Value, n)
		var walk func(pos int) error
		walk = func(pos int) error {
			if pos == n {
				return compareOn(lhs, rhs, in, n, -1, 0)
			}
			for _, d := range domain {
				in[pos] = algebra.Scalar(d)
				if err := walk(pos + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(0); err != nil {
			return err
		}
	}
	return nil
}

// VerifyApplication checks one recorded rule application: the matched
// window and its replacement must be semantically equal. Local-class
// rules are checked on power-of-two sizes only.
func VerifyApplication(app Application, cfg VerifyConfig) error {
	if r, ok := ByName(app.Rule); ok && r.Class == "Local" {
		cfg.Pow2Only = true
		cfg.Sizes = nil
	}
	if err := VerifyEquivalence(term.Seq(app.Before), term.Seq(app.After), cfg); err != nil {
		return fmt.Errorf("rule %s: %w", app.Rule, err)
	}
	return nil
}

// VerifyOptimization optimizes the term with the engine and verifies both
// every individual application and the end-to-end equality of the
// original and optimized program. It returns the optimized term and the
// applications on success.
//
// An empty derivation is verified by identity, without sampling: when no
// rule applies, Optimize returns t itself, and a program equals itself
// at every machine size — including programs the random scalar inputs
// cannot drive (a lone scatter). Every non-empty derivation is sampled
// per application and end to end.
func VerifyOptimization(e *Engine, t term.Term, cfg VerifyConfig) (term.Term, []Application, error) {
	opt, apps := e.Optimize(t)
	if err := verifyDerivation(t, opt, apps, cfg); err != nil {
		return nil, nil, err
	}
	return opt, apps, nil
}

// verifyDerivation checks a derivation of opt from t: each application
// on its own, then t against opt end to end, on power-of-two sizes only
// once a Local-class rule took part. An empty derivation passes
// unsampled; its callers return t itself as opt.
func verifyDerivation(t, opt term.Term, apps []Application, cfg VerifyConfig) error {
	if len(apps) == 0 {
		return nil
	}
	for _, app := range apps {
		if err := VerifyApplication(app, cfg); err != nil {
			return err
		}
		if r, ok := ByName(app.Rule); ok && r.Class == "Local" {
			cfg.Pow2Only = true
			cfg.Sizes = nil
		}
	}
	return VerifyEquivalence(t, opt, cfg)
}
