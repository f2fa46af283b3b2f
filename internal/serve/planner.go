package serve

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// Plan is a finished optimization: the canonical program, its optimized
// form, the derivation summary and the cost estimates — everything a
// response needs, plus the optimized term itself for execution (fused or
// not). Plans are immutable once published and shared by every cache
// hit.
type Plan struct {
	// Canonical is the canonicalized input program (the cache-key half).
	Canonical string `json:"canonical"`
	// Optimized is the canonical rendering of the optimized program.
	Optimized string `json:"optimized"`
	// Applications summarizes the derivation, one rule application per
	// line ("RULE @pos: lhs  =>  rhs").
	Applications []string `json:"applications,omitempty"`
	// CostBefore and CostAfter are the §4 estimates at the plan's
	// machine parameters.
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
	// Verified reports that the derivation was checked under the
	// functional semantics. An empty derivation is verified by identity
	// (the plan is the program itself); a rewritten plan had every rule
	// application and the end-to-end rewriting sampled at the verifier's
	// sizes plus the plan's own p (when p ≤ 16).
	Verified bool `json:"verified"`
	// Strategy is the optimizer that produced the plan ("greedy" or
	// "search").
	Strategy Strategy `json:"strategy"`
	// Search carries the plan-search statistics for searched plans.
	Search *rules.SearchStats `json:"search,omitempty"`
	// Selection records the per-stage collective-algorithm choices when
	// the plan was computed with auto-selection (Request.Select): which
	// algorithm each eligible reduction runs, at which block size, with
	// the predicted cost against the butterfly baseline. Nil without
	// auto-selection.
	Selection []sel.Selection `json:"selection,omitempty"`

	// Term is the optimized program term, for executing the plan; not
	// serialized.
	Term term.Seq `json:"-"`
}

// Planner turns program sources into verified optimized plans, memoizing
// them in the sharded cache. It is safe for concurrent use.
type Planner struct {
	// Symbols resolves operator and map-function names; NewPlanner
	// pre-loads the standard table plus the generator's inc.
	Symbols *lang.Symbols
	// Verify makes every computed plan pass rules.VerifyEquivalence
	// (per application and end to end) before it is published.
	Verify bool
	// VerifyCfg configures the verification runs.
	VerifyCfg rules.VerifyConfig
	// SearchCfg bounds the plan search for the search strategy; the zero
	// value selects the default budgets.
	SearchCfg rules.SearchConfig
	// Cache memoizes key → plan.
	Cache *Cache

	engineRuns atomic.Int64
}

// NewPlanner returns a verifying planner over a cache of the given
// geometry.
func NewPlanner(cacheSize, cacheShards int) *Planner {
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	return &Planner{
		Symbols:   syms,
		Verify:    true,
		VerifyCfg: rules.VerifyConfig{Seed: 11, Trials: 4, Sizes: []int{1, 2, 4, 8}, BlockWords: 3, RelTol: 1e-9},
		Cache:     NewCache(cacheSize, cacheShards),
	}
}

// ParseProgram parses a surface-syntax program into a flattened term.
func (pl *Planner) ParseProgram(src string) (term.Seq, error) {
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("empty program")
	}
	t, err := lang.Parse(src, pl.Symbols)
	if err != nil {
		return nil, err
	}
	return term.Compose(t), nil
}

// KeyOpts builds the cache key for a canonical program at machine
// parameters: the fused and unfused paths, and every client spelling of
// one program, converge on the same key. Searched plans get a
// "|strategy=search" suffix so the two strategies never serve each
// other's plans, and auto-selected plans — different estimates and a
// selection stanza — a "|select" suffix so they never share a cache
// entry with unselected plans of the same program. Greedy unselected
// keys carry no suffix.
func KeyOpts(canonical string, m core.Machine, strat Strategy, autoSel bool) string {
	k := fmt.Sprintf("%s|ts=%g|tw=%g|p=%d|m=%d", canonical, m.Ts, m.Tw, m.P, m.M)
	if strat == StrategySearch {
		k += "|strategy=search"
	}
	if autoSel {
		k += "|select"
	}
	return k
}

// PlanTermOpts returns the optimized plan of an already-parsed term at
// machine m with the given strategy, optionally with
// collective-algorithm auto-selection (the optimizer scores rewrites
// with the portfolio model and the plan records the per-stage
// selections): from the cache when resident (cached = true) and by one
// engine run otherwise. Every option combination lives under its own
// cache key (see KeyOpts).
func (pl *Planner) PlanTermOpts(t term.Seq, m core.Machine, strat Strategy, autoSel bool) (Plan, bool, error) {
	canonical := rules.Canonical(t)
	return pl.Cache.GetOrCompute(KeyOpts(canonical, m, strat, autoSel), func() (Plan, error) {
		return pl.compute(t, canonical, m, strat, autoSel)
	})
}

// maxVerifySize is the largest request p the verifier also samples at;
// term evaluation is linear in p, so larger machines stay with the
// configured sizes.
const maxVerifySize = 16

// verifySizes returns sizes with p added in ascending order when
// p ≤ maxVerifySize and sizes does not list it yet, and sizes itself
// otherwise. A nil list keeps the verifier's defaults.
func verifySizes(sizes []int, p int) []int {
	if sizes == nil || p > maxVerifySize || slices.Contains(sizes, p) {
		return sizes
	}
	out := append(slices.Clone(sizes), p)
	slices.Sort(out)
	return out
}

// compute runs the selected optimizer (and, when Verify is set, the
// semantic verifier at the configured sizes plus the request's p) — the
// single-flight body behind every cache miss. A plan whose cost estimate
// is not finite is an error, so it is never cached or served.
func (pl *Planner) compute(t term.Seq, canonical string, m core.Machine, strat Strategy, autoSel bool) (Plan, error) {
	pl.engineRuns.Add(1)
	prog := core.FromTerm(t)
	vcfg := pl.VerifyCfg
	vcfg.Sizes = verifySizes(vcfg.Sizes, m.P)
	opt, err := prog.OptimizeOpts(m, core.OptimizeOptions{
		Search:       strat == StrategySearch,
		SearchConfig: pl.SearchCfg,
		Auto:         autoSel,
		Verify:       pl.Verify,
		VerifyConfig: vcfg,
	})
	if err != nil {
		return Plan{}, fmt.Errorf("verification failed: %w", err)
	}
	if !finite(opt.EstimateBefore) || !finite(opt.EstimateAfter) {
		return Plan{}, fmt.Errorf("cost estimate is not finite at ts=%g tw=%g p=%d m=%d: %g -> %g",
			m.Ts, m.Tw, m.P, m.M, opt.EstimateBefore, opt.EstimateAfter)
	}
	optTerm := term.Compose(opt.Program.Term())
	plan := Plan{
		Canonical:  canonical,
		Optimized:  rules.Canonical(optTerm),
		CostBefore: opt.EstimateBefore,
		CostAfter:  opt.EstimateAfter,
		Verified:   pl.Verify,
		Strategy:   strat,
		Search:     opt.Search,
		Selection:  opt.Selection,
		Term:       optTerm,
	}
	for _, a := range opt.Applications {
		plan.Applications = append(plan.Applications, a.String())
	}
	return plan, nil
}

// EngineRuns is the number of engine invocations so far — every cache
// miss costs exactly one; the single-flight tests pin this.
func (pl *Planner) EngineRuns() int64 { return pl.engineRuns.Load() }

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
