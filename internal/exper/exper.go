// Package exper is the experiment harness: it regenerates every table and
// figure of the paper's evaluation — Table 1 (predicted and measured),
// the BS-Comcast experiments of Figures 7 and 8, the Figure 2/3
// illustrations, and the §5 polynomial-evaluation case study. The
// substrate a measured experiment runs on is a parameter: a Runner (the
// virtual machine or the native backend) for programs, an AlgoMeasurer
// (native or multi-process) for the algorithm-portfolio sweep. Each
// experiment returns structured rows/series and can render itself as
// text (tables and ASCII plots) or CSV.
package exper

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
)

// Series is one plotted curve: a label and (x, y) points.
type Series struct {
	// Label names the curve (e.g. "bcast; scan").
	Label string
	// X holds the x coordinates (processors or block size).
	X []float64
	// Y holds the measured run times.
	Y []float64
}

// Figure is a set of curves over a common axis.
type Figure struct {
	// Title and axis labels.
	Title, XLabel, YLabel string
	// Series are the curves.
	Series []Series
}

// CSV renders the figure as comma-separated values with a header row.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, x := range f.Series[0].X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%g", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// measure runs a program and returns its makespan on the machine.
func measure(prog core.Program, mach core.Machine, in []algebra.Value) float64 {
	_, res := prog.Run(mach, in)
	return res.Makespan
}
