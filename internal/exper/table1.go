package exper

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mpbackend"
	"repro/internal/rules"
)

// RulePattern pairs a rule with a concrete program matching its left-hand
// side, used to measure the rule's effect on the virtual machine.
type RulePattern struct {
	// Rule is the rule name.
	Rule string
	// LHS is a program the rule's pattern matches in full.
	LHS core.Program
}

// Patterns returns one left-hand-side program per optimization rule, with
// representative operators satisfying each rule's condition (⊗ = *, ⊕ = +
// for the distributivity rules, ⊕ = + for the commutativity rules).
func Patterns() []RulePattern {
	return []RulePattern{
		{"SR2-Reduction", core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)},
		{"SR-Reduction", core.NewProgram().Scan(algebra.Add).Reduce(algebra.Add)},
		{"SS2-Scan", core.NewProgram().Scan(algebra.Mul).Scan(algebra.Add)},
		{"SS-Scan", core.NewProgram().Scan(algebra.Add).Scan(algebra.Add)},
		{"BS-Comcast", core.NewProgram().Bcast().Scan(algebra.Add)},
		{"BSS2-Comcast", core.NewProgram().Bcast().Scan(algebra.Mul).Scan(algebra.Add)},
		{"BSS-Comcast", core.NewProgram().Bcast().Scan(algebra.Add).Scan(algebra.Add)},
		{"BR-Local", core.NewProgram().Bcast().Reduce(algebra.Add)},
		{"BSR2-Local", core.NewProgram().Bcast().Scan(algebra.Mul).Reduce(algebra.Add)},
		{"BSR-Local", core.NewProgram().Bcast().Scan(algebra.Add).Reduce(algebra.Add)},
		{"CR-AllLocal", core.NewProgram().Bcast().AllReduce(algebra.Add)},
	}
}

// patternFor returns the pattern of the named rule.
func patternFor(rule string) (RulePattern, bool) {
	for _, pat := range Patterns() {
		if pat.Rule == rule {
			return pat, true
		}
	}
	return RulePattern{}, false
}

// Rewrite applies the pattern's rule alone to its left-hand side for a
// machine of p processors and returns the rule and the rewritten
// right-hand side. It fails when no rule has the pattern's name (the
// returned rule is then the zero Rule) or when the rule does not apply
// exactly once.
func (pat RulePattern) Rewrite(p int) (rules.Rule, core.Program, error) {
	r, ok := rules.ByName(pat.Rule)
	if !ok {
		return r, core.Program{}, fmt.Errorf("exper: no rule named %s", pat.Rule)
	}
	eng := rules.NewEngine()
	eng.Rules = []rules.Rule{r}
	eng.Env.P = p
	opt, apps := eng.Optimize(pat.LHS.Term())
	if len(apps) != 1 {
		return r, core.Program{}, fmt.Errorf("exper: rule %s did not apply to %s at p=%d", pat.Rule, pat.LHS, p)
	}
	return r, core.FromTerm(opt), nil
}

// mustRewrite is patternFor and Rewrite for the experiments that take a
// rule name from their caller: an unknown or inapplicable rule panics.
func mustRewrite(rule string, p int) (RulePattern, core.Program) {
	pat, ok := patternFor(rule)
	if !ok {
		panic(fmt.Sprintf("exper: no pattern for %s", rule))
	}
	_, rhs, err := pat.Rewrite(p)
	if err != nil {
		panic(err)
	}
	return pat, rhs
}

// Table1Row is one row of the reproduced Table 1: the closed-form
// estimates plus, when measured, the virtual-machine makespans of the
// rule's left- and right-hand sides.
type Table1Row struct {
	// Rule is the rule name.
	Rule string
	// Condition is the table's "Improved if" column.
	Condition string
	// PredBefore and PredAfter are the closed-form estimates.
	PredBefore, PredAfter float64
	// PredImproves is the condition's verdict at these parameters.
	PredImproves bool
	// MeasBefore and MeasAfter are virtual-machine makespans (zero when
	// not measured).
	MeasBefore, MeasAfter float64
	// MeasImproves reports whether the measured times improved.
	MeasImproves bool
	// Rewritten is the right-hand-side program.
	Rewritten string
}

// Table1 reproduces the paper's Table 1 at the given parameters: for every
// rule, the predicted before/after times and the improvement verdict. With
// measured = true it additionally applies each rule with the rewrite
// engine and measures both sides with run (p must then be a power of two,
// matching the butterfly model the predictions assume): RunVirtual gives
// virtual time units, NativeRunner wall-clock nanoseconds from the
// goroutine backend. The predictions stay the closed forms either way.
func Table1(mach core.Machine, measured bool, run Runner) []Table1Row {
	params := cost.Params{Ts: mach.Ts, Tw: mach.Tw, M: mach.M, P: mach.P}
	var out []Table1Row
	for _, pat := range Patterns() {
		entry, ok := cost.Lookup(pat.Rule)
		if !ok {
			panic(fmt.Sprintf("exper: no Table 1 entry for %s", pat.Rule))
		}
		row := Table1Row{
			Rule:         pat.Rule,
			Condition:    entry.Condition,
			PredBefore:   entry.Before(params),
			PredAfter:    entry.After(params),
			PredImproves: entry.Improves(params),
		}
		if measured {
			_, rhs, err := pat.Rewrite(mach.P)
			if err != nil {
				panic(err)
			}
			in := mpbackend.SeededInputs(1, mach.P, mach.M)
			row.MeasBefore = run(pat.LHS, mach, in)
			row.MeasAfter = run(rhs, mach, in)
			row.MeasImproves = row.MeasAfter < row.MeasBefore
			row.Rewritten = rhs.String()
		}
		out = append(out, row)
	}
	return out
}

// FormatTable1 renders rows as an aligned text table resembling the
// paper's Table 1.
func FormatTable1(rows []Table1Row, measured bool) string {
	var b strings.Builder
	if measured {
		fmt.Fprintf(&b, "%-14s %12s %12s %9s %12s %12s %9s  %s\n",
			"Rule", "pred before", "pred after", "pred imp", "meas before", "meas after", "meas imp", "condition")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-14s %12.0f %12.0f %9v %12.0f %12.0f %9v  %s\n",
				r.Rule, r.PredBefore, r.PredAfter, r.PredImproves,
				r.MeasBefore, r.MeasAfter, r.MeasImproves, r.Condition)
		}
	} else {
		fmt.Fprintf(&b, "%-14s %14s %14s %9s  %s\n",
			"Rule", "time before", "time after", "improves", "condition")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-14s %14.0f %14.0f %9v  %s\n",
				r.Rule, r.PredBefore, r.PredAfter, r.PredImproves, r.Condition)
		}
	}
	return b.String()
}

// CrossoverResult reports a predicted and a measured crossover block size
// for one rule: the largest m at which the rule still pays off at fixed
// ts, tw, p.
type CrossoverResult struct {
	Rule                string
	Predicted, Measured int
}

// MeasureCrossover locates the measured crossover block size of a rule by
// bisection, alongside the prediction from the closed forms. maxM bounds
// the search. On the virtual machine (RunVirtual) the measured makespans
// are exact under the deterministic cost model, so bisection is sound as
// long as the improvement is monotone in m, which it is for every Table 1
// rule. With NativeRunner the bisection runs on noisy wall-clock times;
// use enough repetitions that the improvement stays effectively
// monotone, and read the result as an estimate, not an exact bound.
func MeasureCrossover(ruleName string, mach core.Machine, maxM int, run Runner) CrossoverResult {
	entry, ok := cost.Lookup(ruleName)
	if !ok {
		panic(fmt.Sprintf("exper: no Table 1 entry for %s", ruleName))
	}
	base := cost.Params{Ts: mach.Ts, Tw: mach.Tw, P: mach.P}
	res := CrossoverResult{
		Rule:      ruleName,
		Predicted: cost.Crossover(entry, base, maxM),
	}
	pat, rhs := mustRewrite(ruleName, mach.P)
	improves := func(m int) bool {
		mm := mach
		mm.M = m
		in := mpbackend.SeededInputs(1, mach.P, m)
		return run(rhs, mm, in) < run(pat.LHS, mm, in)
	}
	switch {
	case improves(maxM):
		res.Measured = maxM
	case !improves(1):
		res.Measured = 0
	default:
		lo, hi := 1, maxM
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if improves(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		res.Measured = lo
	}
	return res
}
