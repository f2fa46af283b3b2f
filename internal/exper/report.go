package exper

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
)

// ReportConfig parameterizes the full experiment report.
type ReportConfig struct {
	// Ts and Tw are the communication parameters (default Parsytec-like
	// 5000/1).
	Ts, Tw float64
	// P is the machine size for Table 1 and the case study (default 32;
	// must be a power of two for the measured table).
	P int
	// M is the block size for Table 1 (default 16).
	M int
}

func (c ReportConfig) defaults() ReportConfig {
	if c.Ts == 0 {
		c.Ts = 5000
	}
	if c.Tw == 0 {
		c.Tw = 1
	}
	if c.P == 0 {
		c.P = 32
	}
	if c.M == 0 {
		c.M = 16
	}
	return c
}

// Report runs every experiment and renders a self-contained Markdown
// report: the measured Table 1 on two machine regimes, the Figure 2
// warm-up, the Figure 7/8 series, the rule crossovers, and the §5
// polynomial case study. It is the generator behind EXPERIMENTS.md.
func Report(cfg ReportConfig) string {
	cfg = cfg.defaults()
	var b strings.Builder

	fmt.Fprintf(&b, "## Reproduced evaluation (generated by `collbench -report`)\n\n")
	fmt.Fprintf(&b, "Machine model: fully connected, ts = %g, tw = %g (units of one elementary operation);\n", cfg.Ts, cfg.Tw)
	fmt.Fprintf(&b, "virtual times from the deterministic cost-model machine (`internal/machine`).\n\n")

	// Table 1 on a start-up-dominated machine.
	fmt.Fprintf(&b, "### Table 1 — start-up-dominated machine (p=%d, m=%d, ts=%g, tw=%g)\n\n", cfg.P, cfg.M, cfg.Ts, cfg.Tw)
	mach := core.Machine{Ts: cfg.Ts, Tw: cfg.Tw, P: cfg.P, M: cfg.M}
	writeTable1MD(&b, Table1(mach, true, RunVirtual))

	// Table 1 on a bandwidth-dominated machine.
	bigM := 16384
	fmt.Fprintf(&b, "\n### Table 1 — bandwidth-dominated machine (p=%d, m=%d, ts=1, tw=%g)\n\n", cfg.P, bigM, cfg.Tw)
	mach2 := core.Machine{Ts: 1, Tw: cfg.Tw, P: cfg.P, M: bigM}
	writeTable1MD(&b, Table1(mach2, true, RunVirtual))

	// Figure 2.
	fmt.Fprintf(&b, "\n### Figure 2 — P1 = P2 on [1 2 3 4]\n\n")
	p1, p2, mid := Figure2()
	fmt.Fprintf(&b, "```\nP1 = allreduce(+):                   %v\n", p1)
	fmt.Fprintf(&b, "P2 after allreduce(op_new):          %v\n", mid)
	fmt.Fprintf(&b, "P2 = … ; map pi_1:                   %v\n```\n", p2)

	// Figure 3.
	fmt.Fprintf(&b, "\n### Figure 3 — Example before/after SR2-Reduction (p=8)\n\n")
	before, after, tB, tA := Figure3(core.Machine{Ts: cfg.Ts, Tw: cfg.Tw, P: 8, M: cfg.M}, 60)
	fmt.Fprintf(&b, "```\n%s\n%s```\n", before, after)
	fmt.Fprintf(&b, "\nMeasured saving: %.0f → %.0f (%.1f%%).\n", tB, tA, 100*(tB-tA)/tB)

	// Figures 7 and 8.
	params := machine.Params{Ts: cfg.Ts, Tw: cfg.Tw}
	fig7 := Figure7(params, 2048, 64, RunVirtual)
	fmt.Fprintf(&b, "\n### Figure 7 — comcast variants vs processors (block 2048 words)\n\n```\n%s```\n\n```\n%s```\n",
		fig7.Plot(64, 14), fig7.CSV())
	fig8 := Figure8(params, 64, 512, 4096, RunVirtual)
	fmt.Fprintf(&b, "\n### Figure 8 — comcast variants vs block size (64 processors)\n\n```\n%s```\n\n```\n%s```\n",
		fig8.Plot(64, 14), fig8.CSV())

	// Crossovers.
	fmt.Fprintf(&b, "\n### Crossovers — predicted vs measured largest profitable m (ts=%g, tw=%g, p=16)\n\n", cfg.Ts, cfg.Tw)
	fmt.Fprintf(&b, "| Rule | predicted m | measured m |\n|---|---:|---:|\n")
	for _, rule := range []string{"SR-Reduction", "SS2-Scan", "SS-Scan"} {
		res := MeasureCrossover(rule, core.Machine{Ts: cfg.Ts, Tw: cfg.Tw, P: 16}, 1<<15, RunVirtual)
		fmt.Fprintf(&b, "| %s | %d | %d |\n", res.Rule, res.Predicted, res.Measured)
	}

	// PolyEval.
	fmt.Fprintf(&b, "\n### §5 case study — polynomial evaluation (%d points)\n\n", 512)
	fmt.Fprintf(&b, "| p | PolyEval_1 | PolyEval_2 | PolyEval_3 | comcast (cost-optimal) |\n|---:|---:|---:|---:|---:|\n")
	for _, p := range []int{4, 8, 16, 32, 64} {
		pe := NewPolyEval(2024, p, 512)
		times := map[string]float64{}
		for _, r := range pe.Run(cfg.Ts, cfg.Tw) {
			if !r.Correct {
				fmt.Fprintf(&b, "| %d | WRONG RESULT (%s) |\n", p, r.Name)
			}
			times[r.Name] = r.Makespan
		}
		fmt.Fprintf(&b, "| %d | %.0f | %.0f | %.0f | %.0f |\n", p,
			times["PolyEval_1 (bcast; scan)"],
			times["PolyEval_2 (BS-Comcast)"],
			times["PolyEval_3 (fused locals)"],
			times["comcast (cost-optimal)"])
	}
	fmt.Fprintf(&b, "\nAll variants verified against direct Horner evaluation on every run.\n")
	return b.String()
}

func writeTable1MD(b *strings.Builder, rows []Table1Row) {
	fmt.Fprintf(b, "| Rule | predicted before | predicted after | measured before | measured after | improves (pred/meas) | condition |\n")
	fmt.Fprintf(b, "|---|---:|---:|---:|---:|:---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(b, "| %s | %.0f | %.0f | %.0f | %.0f | %v / %v | %s |\n",
			r.Rule, r.PredBefore, r.PredAfter, r.MeasBefore, r.MeasAfter,
			r.PredImproves, r.MeasImproves, r.Condition)
	}
}
