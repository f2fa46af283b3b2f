package exper

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// comcastFigure measures the three programs compared in Figures 7 and 8
// — the left-hand side bcast; scan(+), the cost-optimal comcast, and the
// bcast; repeat implementation used by rule BS-Comcast — at every x of
// the sweep, on the machine machAt(x) with seeded inputs.
func comcastFigure(fig Figure, xs []int, seed int64, machAt func(x int) core.Machine, run Runner) Figure {
	ops := algebra.OpCompBS(algebra.Add)
	progs := []core.Program{
		core.NewProgram().Bcast().Scan(algebra.Add),
		core.FromTerm(term.Comcast{Ops: ops, CostOptimal: true}),
		core.FromTerm(term.Comcast{Ops: ops}),
	}
	labels := []string{"bcast; scan", "comcast", "bcast; repeat"}
	for i, prog := range progs {
		s := Series{Label: labels[i]}
		for _, x := range xs {
			mach := machAt(x)
			s.X = append(s.X, float64(x))
			s.Y = append(s.Y, run(prog, mach, mpbackend.SeededInputs(seed, mach.P, mach.M)))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figure7 reproduces Figure 7: run time of the three comcast variants as
// a function of the number of processors, at fixed block size blockWords
// (the paper uses 32·10³ on up to 64 processors). Machine sizes are the
// powers of two up to maxP.
func Figure7(params machine.Params, blockWords, maxP int, run Runner) Figure {
	var ps []int
	for p := 2; p <= maxP; p *= 2 {
		ps = append(ps, p)
	}
	return comcastFigure(Figure{
		Title:  fmt.Sprintf("Figure 7: BS-Comcast variants, block size %d", blockWords),
		XLabel: "processors",
		YLabel: "time",
	}, ps, 7, func(p int) core.Machine {
		return core.Machine{Ts: params.Ts, Tw: params.Tw, P: p, M: blockWords}
	}, run)
}

// Figure8 reproduces Figure 8: run time of the three comcast variants as
// a function of the block size, at fixed machine size p (64 in the
// paper). Block sizes sweep from step to maxM in equal steps.
func Figure8(params machine.Params, p, step, maxM int, run Runner) Figure {
	var ms []int
	for m := step; m <= maxM; m += step {
		ms = append(ms, m)
	}
	return comcastFigure(Figure{
		Title:  fmt.Sprintf("Figure 8: BS-Comcast variants on %d processors", p),
		XLabel: "block size",
		YLabel: "time",
	}, ms, 8, func(m int) core.Machine {
		return core.Machine{Ts: params.Ts, Tw: params.Tw, P: p, M: m}
	}, run)
}

// CrossoverFigure visualizes the §4.2 analysis for one rule: the measured
// run times of the left-hand side and the rewritten right-hand side as
// the block size m sweeps across the predicted crossover — SS2-Scan's
// ts > 2m, for instance, makes the two curves intersect at m = ts/2.
// With NativeRunner the crossover plotted is the host's real one — where
// the fused form's saved synchronization rounds stop paying for its
// extra local work.
func CrossoverFigure(ruleName string, params machine.Params, p int, ms []int, run Runner) Figure {
	pat, rhs := mustRewrite(ruleName, p)
	fig := Figure{
		Title:  fmt.Sprintf("%s crossover (ts=%g, tw=%g, p=%d)", ruleName, params.Ts, params.Tw, p),
		XLabel: "block size",
		YLabel: "time",
	}
	lhsSeries := Series{Label: "before (" + pat.LHS.String() + ")"}
	rhsSeries := Series{Label: "after"}
	for _, m := range ms {
		mach := core.Machine{Ts: params.Ts, Tw: params.Tw, P: p, M: m}
		in := mpbackend.SeededInputs(4, p, m)
		lhsSeries.X = append(lhsSeries.X, float64(m))
		lhsSeries.Y = append(lhsSeries.Y, run(pat.LHS, mach, in))
		rhsSeries.X = append(rhsSeries.X, float64(m))
		rhsSeries.Y = append(rhsSeries.Y, run(rhs, mach, in))
	}
	fig.Series = []Series{lhsSeries, rhsSeries}
	return fig
}

// Scaling measures strong scaling of a rule's effect: at fixed total data
// N = p·m, sweep the machine size over the given powers of two and record
// the run times of the rule's left-hand side and its rewrite. The gap
// grows with p — every fused start-up is paid log p times — which is the
// operational content of the paper's claim that "good optimization here
// may pay a lot" on large machines.
func Scaling(ruleName string, params machine.Params, totalWords int, ps []int, run Runner) Figure {
	fig := Figure{
		Title:  fmt.Sprintf("%s strong scaling (N = %d words, ts=%g, tw=%g)", ruleName, totalWords, params.Ts, params.Tw),
		XLabel: "processors",
		YLabel: "time",
	}
	before := Series{Label: "before"}
	after := Series{Label: "after"}
	for _, p := range ps {
		pat, rhs := mustRewrite(ruleName, p)
		m := max(totalWords/p, 1)
		mach := core.Machine{Ts: params.Ts, Tw: params.Tw, P: p, M: m}
		in := mpbackend.SeededInputs(5, p, m)
		before.X = append(before.X, float64(p))
		before.Y = append(before.Y, run(pat.LHS, mach, in))
		after.X = append(after.X, float64(p))
		after.Y = append(after.Y, run(rhs, mach, in))
	}
	fig.Series = []Series{before, after}
	return fig
}

// Figure2 reproduces the semantic-equality illustration of Figure 2:
// P1 = allreduce(+) and P2 = map pair; allreduce(op_new); map π₁ applied
// to [1,2,3,4], returning both output lists and the intermediate list of
// P2.
func Figure2() (p1Out, p2Out, p2Mid []algebra.Value) {
	in := []algebra.Value{
		algebra.Scalar(1), algebra.Scalar(2), algebra.Scalar(3), algebra.Scalar(4),
	}
	opNew := algebra.OpNew(algebra.Add, algebra.Mul)
	p1 := term.Seq{term.Reduce{Op: algebra.Add, All: true}}
	p2pre := term.Seq{term.Map{F: term.PairFn}, term.Reduce{Op: opNew, All: true}}
	p2 := term.Compose(p2pre, term.Map{F: term.FirstFn})
	return term.Eval(p1, in), term.Eval(p2, in), term.Eval(p2pre, in)
}

// Figure3 reproduces the run-time pictures of Figure 3: the Example
// program traced on the virtual machine before and after applying rule
// SR2-Reduction, rendered as text timelines. It returns the two rendered
// timelines and the measured makespans.
func Figure3(mach core.Machine, width int) (before, after string, tBefore, tAfter float64) {
	f := &term.Fn{Name: "f", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Add.Apply(v, algebra.Scalar(1))
	}}
	g := &term.Fn{Name: "g", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Mul.Apply(v, algebra.Scalar(2))
	}}
	example := core.NewProgram().Map(f).Scan(algebra.Mul).Reduce(algebra.Add).Map(g).Bcast()

	eng := rules.NewEngine()
	eng.Env.P = mach.P
	optTerm, apps := eng.Optimize(example.Term())
	if len(apps) == 0 {
		panic("exper: SR2-Reduction did not apply to Example")
	}
	optimized := core.FromTerm(optTerm)

	in := mpbackend.SeededInputs(3, mach.P, mach.M)
	_, resB, evB := example.RunTraced(mach, in)
	_, resA, evA := optimized.RunTraced(mach, in)
	var b strings.Builder
	fmt.Fprintf(&b, "%s   (makespan %.0f)\n", example, resB.Makespan)
	b.WriteString(machine.Timeline(evB, mach.P, width))
	before = b.String()
	b.Reset()
	fmt.Fprintf(&b, "%s   (makespan %.0f)\n", optimized, resA.Makespan)
	b.WriteString(machine.Timeline(evA, mach.P, width))
	after = b.String()
	return before, after, resB.Makespan, resA.Makespan
}
