package exper

import (
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/machine"
)

// parsytec is a start-up-dominated parameter set resembling the paper's
// Parsytec/MPICH testbed, where the comcast rules clearly pay off.
var parsytec = machine.Params{Ts: 5000, Tw: 1}

func TestTable1Predicted(t *testing.T) {
	mach := core.Machine{Ts: 1000, Tw: 1, P: 64, M: 32}
	rows := Table1(mach, false, RunVirtual)
	if len(rows) != 11 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PredBefore <= 0 || r.PredAfter <= 0 {
			t.Errorf("%s: non-positive estimates %g %g", r.Rule, r.PredBefore, r.PredAfter)
		}
	}
	out := FormatTable1(rows, false)
	if !strings.Contains(out, "SR2-Reduction") || !strings.Contains(out, "always") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestTable1MeasuredMatchesPredicted is the measured reproduction of
// Table 1: on a power-of-two machine, the virtual-machine makespans of
// each rule's two sides must match the closed-form estimates within 20%
// (comcast right-hand sides differ slightly because processors with few
// one-bits do less repeat work than the worst case the estimate charges),
// and the measured improvement verdict must agree with the condition
// column on both a start-up-dominated and a bandwidth-dominated machine.
func TestTable1MeasuredMatchesPredicted(t *testing.T) {
	machines := []core.Machine{
		{Ts: 5000, Tw: 1, P: 32, M: 16}, // start-up dominated: all rules improve
		{Ts: 1, Tw: 1, P: 32, M: 16384}, // bandwidth dominated
	}
	for _, mach := range machines {
		rows := Table1(mach, true, RunVirtual)
		for _, r := range rows {
			if r.MeasBefore <= 0 || r.MeasAfter <= 0 {
				t.Fatalf("%s: no measurement", r.Rule)
			}
			if !within(r.MeasBefore, r.PredBefore, 0.20) {
				t.Errorf("%s at %+v: measured before %g vs predicted %g",
					r.Rule, mach, r.MeasBefore, r.PredBefore)
			}
			if !within(r.MeasAfter, r.PredAfter, 0.20) {
				t.Errorf("%s at %+v: measured after %g vs predicted %g",
					r.Rule, mach, r.MeasAfter, r.PredAfter)
			}
			if r.MeasImproves != r.PredImproves {
				t.Errorf("%s at %+v: measured improvement %v, predicted %v (meas %g->%g, pred %g->%g)",
					r.Rule, mach, r.MeasImproves, r.PredImproves,
					r.MeasBefore, r.MeasAfter, r.PredBefore, r.PredAfter)
			}
		}
	}
}

func within(a, b, frac float64) bool {
	return math.Abs(a-b) <= frac*math.Abs(b)
}

func TestFormatTable1Measured(t *testing.T) {
	mach := core.Machine{Ts: 5000, Tw: 1, P: 8, M: 4}
	rows := Table1(mach, true, RunVirtual)
	out := FormatTable1(rows, true)
	if !strings.Contains(out, "meas before") || !strings.Contains(out, "BSS-Comcast") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestFigure7Shape asserts the paper's Figure 7 result: at a fixed large
// block, for every processor count, bcast;repeat < comcast < bcast;scan.
func TestFigure7Shape(t *testing.T) {
	fig := Figure7(parsytec, 2048, 64, RunVirtual)
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	scan, com, rep := fig.Series[0], fig.Series[1], fig.Series[2]
	for i := range scan.X {
		if !(rep.Y[i] < com.Y[i] && com.Y[i] < scan.Y[i]) {
			t.Errorf("p=%g: ordering violated: scan %g, comcast %g, repeat %g",
				scan.X[i], scan.Y[i], com.Y[i], rep.Y[i])
		}
	}
	// Run time grows with p (log p factor).
	for i := 1; i < len(scan.Y); i++ {
		if scan.Y[i] <= scan.Y[i-1] {
			t.Errorf("bcast;scan not increasing in p: %v", scan.Y)
		}
	}
}

// TestFigure8Shape asserts Figure 8: on 64 processors the three curves
// grow linearly in the block size and keep the same ordering.
func TestFigure8Shape(t *testing.T) {
	fig := Figure8(parsytec, 64, 512, 4096, RunVirtual)
	scan, com, rep := fig.Series[0], fig.Series[1], fig.Series[2]
	for i := range scan.X {
		if !(rep.Y[i] < com.Y[i] && com.Y[i] < scan.Y[i]) {
			t.Errorf("m=%g: ordering violated: scan %g, comcast %g, repeat %g",
				scan.X[i], scan.Y[i], com.Y[i], rep.Y[i])
		}
	}
	// Linear growth in m: the increment between consecutive block sizes
	// is constant under the cost model.
	for _, s := range fig.Series {
		d0 := s.Y[1] - s.Y[0]
		for i := 2; i < len(s.Y); i++ {
			if !within(s.Y[i]-s.Y[i-1], d0, 1e-9) {
				t.Errorf("%s: growth not linear: %v", s.Label, s.Y)
			}
		}
	}
}

func TestFigureCSV(t *testing.T) {
	fig := Figure7(parsytec, 64, 8, RunVirtual)
	csv := fig.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// Header + p = 2, 4, 8.
	if len(lines) != 4 {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.HasPrefix(lines[0], "processors,bcast; scan,comcast,bcast; repeat") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestFigurePlot(t *testing.T) {
	fig := Figure7(parsytec, 64, 16, RunVirtual)
	out := fig.Plot(40, 10)
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "s=bcast; scan") {
		t.Fatalf("plot:\n%s", out)
	}
	// All three glyphs appear somewhere on the canvas.
	for _, g := range []string{"s", "c", "r"} {
		if !strings.Contains(out, g) {
			t.Fatalf("glyph %s missing:\n%s", g, out)
		}
	}
}

func TestFigure2Reproduction(t *testing.T) {
	p1, p2, mid := Figure2()
	for i := range p1 {
		if !algebra.Equal(p1[i], algebra.Scalar(10)) || !algebra.Equal(p2[i], algebra.Scalar(10)) {
			t.Fatalf("P1 = %v, P2 = %v", p1, p2)
		}
		want := algebra.Tuple{algebra.Scalar(10), algebra.Scalar(24)}
		if !algebra.Equal(mid[i], want) {
			t.Fatalf("P2 intermediate = %v", mid)
		}
	}
}

func TestFigure3Timelines(t *testing.T) {
	mach := core.Machine{Ts: 500, Tw: 1, P: 8, M: 8}
	before, after, tB, tA := Figure3(mach, 60)
	if tA >= tB {
		t.Fatalf("SR2-Reduction did not save time: %g -> %g", tB, tA)
	}
	if !strings.Contains(before, "scan(*) ; reduce(+)") {
		t.Fatalf("before timeline:\n%s", before)
	}
	if !strings.Contains(after, "op_sr2") {
		t.Fatalf("after timeline:\n%s", after)
	}
	if !strings.Contains(before, "P0") || !strings.Contains(after, "P7") {
		t.Fatal("timelines missing processor rows")
	}
}

// TestSS2CrossoverMeasured measures the SS2-Scan crossover block size on
// the virtual machine and compares it with the predicted ts/2 (§4.2).
func TestSS2CrossoverMeasured(t *testing.T) {
	mach := core.Machine{Ts: 1024, Tw: 1, P: 16}
	res := MeasureCrossover("SS2-Scan", mach, 1<<14, RunVirtual)
	if res.Predicted != 511 {
		// Largest m with ts > 2m at ts = 1024 is m = 511.
		t.Fatalf("predicted crossover = %d, want 511", res.Predicted)
	}
	if res.Measured != res.Predicted {
		t.Fatalf("measured crossover %d != predicted %d", res.Measured, res.Predicted)
	}
}

// TestSRCrossoverMeasured does the same for SR-Reduction (ts > m).
func TestSRCrossoverMeasured(t *testing.T) {
	mach := core.Machine{Ts: 777, Tw: 2, P: 16}
	res := MeasureCrossover("SR-Reduction", mach, 1<<13, RunVirtual)
	if res.Predicted != 776 {
		t.Fatalf("predicted crossover = %d, want 776", res.Predicted)
	}
	if res.Measured != res.Predicted {
		t.Fatalf("measured crossover %d != predicted %d", res.Measured, res.Predicted)
	}
}

// TestPolyEvalCaseStudy reproduces §5: every variant computes the same
// polynomial values, BS-Comcast improves on the specification, and the
// cost-optimal comcast is slower than bcast; repeat.
func TestPolyEvalCaseStudy(t *testing.T) {
	for _, p := range []int{4, 8, 16, 32, 64} {
		pe := NewPolyEval(9, p, 64)
		results := pe.Run(parsytec.Ts, parsytec.Tw)
		if len(results) != 4 {
			t.Fatalf("results = %v", results)
		}
		byName := map[string]Result{}
		for _, r := range results {
			if !r.Correct {
				t.Fatalf("p=%d: %s computed wrong values", p, r.Name)
			}
			byName[r.Name] = r
		}
		spec := byName["PolyEval_1 (bcast; scan)"].Makespan
		fused := byName["PolyEval_3 (fused locals)"].Makespan
		optimal := byName["comcast (cost-optimal)"].Makespan
		two := byName["PolyEval_2 (BS-Comcast)"].Makespan
		if !(fused < spec) {
			t.Errorf("p=%d: PolyEval_3 (%g) not faster than PolyEval_1 (%g)", p, fused, spec)
		}
		if !(two < spec) {
			t.Errorf("p=%d: PolyEval_2 (%g) not faster than PolyEval_1 (%g)", p, two, spec)
		}
		if !(fused < optimal) {
			t.Errorf("p=%d: bcast;repeat (%g) not faster than cost-optimal comcast (%g)", p, fused, optimal)
		}
	}
}

// TestPolyEvalProgram2IsRuleDerived checks PolyEval_2 is literally the
// engine's rewrite of PolyEval_1.
func TestPolyEvalProgram2IsRuleDerived(t *testing.T) {
	pe := NewPolyEval(10, 8, 16)
	if got := pe.Program2().String(); !strings.Contains(got, "repeat") {
		t.Fatalf("PolyEval_2 = %q", got)
	}
}

func TestPolyEvalLargeMachineUsesSafePoints(t *testing.T) {
	pe := NewPolyEval(11, 64, 32)
	for _, y := range pe.Points {
		if y != -1 && y != 0 && y != 1 {
			t.Fatalf("unsafe point %g for p=64", y)
		}
	}
	// Small machines may use the richer point set.
	pe = NewPolyEval(11, 8, 512)
	seen := map[float64]bool{}
	for _, y := range pe.Points {
		seen[y] = true
	}
	if !seen[2] && !seen[0.5] && !seen[-0.5] {
		t.Fatal("small machine should use the richer point set")
	}
}

// TestCrossoverFigureShowsIntersection: the SS2-Scan before/after curves
// must intersect at the predicted m = ts/2 — before is cheaper above,
// after is cheaper below.
func TestCrossoverFigureShowsIntersection(t *testing.T) {
	params := machine.Params{Ts: 1024, Tw: 1}
	ms := []int{128, 256, 384, 512, 640, 768, 1024}
	fig := CrossoverFigure("SS2-Scan", params, 16, ms, RunVirtual)
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	before, after := fig.Series[0], fig.Series[1]
	for i, m := range ms {
		improves := after.Y[i] < before.Y[i]
		wantImproves := float64(params.Ts) > 2*float64(m)
		if improves != wantImproves {
			t.Errorf("m=%d: after<before = %v, predicted %v (before %g, after %g)",
				m, improves, wantImproves, before.Y[i], after.Y[i])
		}
	}
}

func TestCrossoverFigureUnknownRulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossoverFigure("No-Such-Rule", machine.Params{Ts: 1}, 8, []int{1}, RunVirtual)
}

// TestScalingGapGrowsWithP: at fixed total data, the saving of
// SR2-Reduction grows with the machine size (the fused start-up is paid
// log p times).
func TestScalingGapGrowsWithP(t *testing.T) {
	fig := Scaling("SR2-Reduction", machine.Params{Ts: 5000, Tw: 1}, 1<<14, []int{2, 4, 8, 16, 32, 64}, RunVirtual)
	before, after := fig.Series[0], fig.Series[1]
	prevGap := 0.0
	for i := range before.X {
		gap := before.Y[i] - after.Y[i]
		if gap <= 0 {
			t.Fatalf("p=%g: no saving (before %g, after %g)", before.X[i], before.Y[i], after.Y[i])
		}
		if gap < prevGap {
			t.Fatalf("p=%g: saving shrank from %g to %g", before.X[i], prevGap, gap)
		}
		prevGap = gap
	}
}

func TestScalingUnknownRulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Scaling("No-Such-Rule", machine.Params{Ts: 1}, 8, []int{2}, RunVirtual)
}

func TestAppSpeedup(t *testing.T) {
	for _, app := range []string{"mss", "statistics", "samplesort"} {
		rows := AppSpeedup(app, 100, 1, 4096, []int{1, 2, 4, 8, 16})
		if len(rows) != 5 {
			t.Fatalf("%s: rows = %v", app, rows)
		}
		if rows[0].P != 1 || within(rows[0].Speedup, 1, 1e-9) == false {
			t.Fatalf("%s: p=1 speedup = %g", app, rows[0].Speedup)
		}
		// Local work dominates at cheap start-up: speedup must grow.
		for i := 1; i < len(rows); i++ {
			if rows[i].Speedup <= rows[i-1].Speedup {
				t.Fatalf("%s: speedup not increasing: %+v", app, rows)
			}
		}
		out := FormatSpeedup(app, rows)
		if !strings.Contains(out, "efficiency") {
			t.Fatalf("format:\n%s", out)
		}
	}
}

// TestAppSpeedupAcceptsEveryListedApp pins AppNames against the
// AppSpeedup dispatch: every advertised app must run (the sparse ones
// need n divisible by the stencil's 64 rows and by 8 for the graph's
// vertex count) and produce a nonzero single-processor time.
func TestAppSpeedupAcceptsEveryListedApp(t *testing.T) {
	for _, app := range AppNames {
		rows := AppSpeedup(app, 100, 1, 512, []int{2})
		if len(rows) != 1 || rows[0].Time <= 0 {
			t.Fatalf("%s: rows = %+v", app, rows)
		}
	}
}

func TestAppSpeedupUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AppSpeedup("nope", 1, 1, 64, []int{1})
}
