package calib

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMeasureProducesFittableSamples(t *testing.T) {
	cfg := QuickConfig()
	samples, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples measured")
	}
	probes := map[string]bool{}
	for _, s := range samples {
		probes[s.Probe] = true
		if s.Ns <= 0 {
			t.Errorf("%s p=%d m=%d: measured %g ns, want > 0", s.Probe, s.P, s.M, s.Ns)
		}
		if s.CoefTs < 0 || s.CoefTw < 0 || s.CoefC < 0 {
			t.Errorf("%s p=%d m=%d: negative coefficient", s.Probe, s.P, s.M)
		}
	}
	for _, p := range []string{ProbePingPong, ProbeCompute, ProbeBcast, ProbeReduce, ProbeScan} {
		if !probes[p] {
			t.Errorf("probe %s missing from the sample set", p)
		}
	}
	fit, err := FitSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	if fit.TcNs <= 0 || fit.Ts < 0 || fit.Tw < 0 {
		t.Errorf("implausible fit: %+v", fit)
	}
}

func TestValidateCoversEveryRule(t *testing.T) {
	cfg := QuickConfig()
	fit := Fit{TsNs: 600, TwNs: 0, TcNs: 4, Ts: 150, Tw: 0}
	val, err := Validate(fit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ValidateP = 4 is a power of two, so all 11 rules participate.
	if len(val) != 11 {
		t.Fatalf("got %d validations, want 11", len(val))
	}
	maxM := cfg.ValidateMs[len(cfg.ValidateMs)-1]
	for _, v := range val {
		if len(v.LhsNs) != len(cfg.ValidateMs) || len(v.RhsNs) != len(cfg.ValidateMs) {
			t.Errorf("%s: sweep has %d/%d points, want %d", v.Rule, len(v.LhsNs), len(v.RhsNs), len(cfg.ValidateMs))
		}
		if v.PredCross < 0 || v.PredCross > maxM || v.MeasCross < 0 || v.MeasCross > maxM {
			t.Errorf("%s: crossovers (%d, %d) out of [0, %d]", v.Rule, v.PredCross, v.MeasCross, maxM)
		}
		if v.Agreement < 0 || v.Agreement > 1 {
			t.Errorf("%s: agreement %g out of [0, 1]", v.Rule, v.Agreement)
		}
		if v.LHS == "" || v.RHS == "" || v.Class == "" {
			t.Errorf("%s: record is not self-describing: %+v", v.Rule, v)
		}
	}
}

func TestValidateSkipsLocalRulesOnNonPow2(t *testing.T) {
	cfg := QuickConfig()
	cfg.ValidateP = 6
	val, err := Validate(Fit{Ts: 100, TcNs: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range val {
		if v.Class == "Local" {
			t.Errorf("Local rule %s validated on p=6", v.Rule)
		}
	}
	if len(val) != 7 {
		t.Errorf("got %d validations on p=6, want the 7 non-Local rules", len(val))
	}
}

func TestRunAndReportRoundTrip(t *testing.T) {
	rep, err := Run(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "native" || rep.Reps != QuickConfig().Reps {
		t.Errorf("report is not self-describing: backend=%q reps=%d", rep.Backend, rep.Reps)
	}
	path := filepath.Join(t.TempDir(), "calib.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fit != rep.Fit {
		t.Errorf("fit did not round-trip: %+v != %+v", back.Fit, rep.Fit)
	}
	if len(back.Samples) != len(rep.Samples) || len(back.Validation) != len(rep.Validation) {
		t.Errorf("report lost records: %d/%d samples, %d/%d validations",
			len(back.Samples), len(rep.Samples), len(back.Validation), len(rep.Validation))
	}
	text := FormatReport(rep)
	for _, want := range []string{"Calibration", "fitted (ns)", "model units", "fit quality", "Break-even validation", "SR2-Reduction"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted report lacks %q:\n%s", want, text)
		}
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must be an error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(bad); err == nil {
		t.Error("malformed JSON must be an error")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(empty); err == nil {
		t.Error("a report without a usable fit must be an error")
	}
}

// TestProbePlan pins the probe plan (probe, p, m, rounds) of both
// shipped configurations: ping-pong at every m with 4×Rounds, compute at
// m ≥ 64 with Rounds·max(16, 4096/m), the collectives at every p ≥ 2
// and every m with Rounds.
func TestProbePlan(t *testing.T) {
	render := func(cfg Config) string {
		var lines []string
		for _, s := range plan(cfg) {
			lines = append(lines, fmt.Sprintf("%s %d %d %d", s.Probe, s.P, s.M, s.Rounds))
		}
		return strings.Join(lines, ", ")
	}
	quick := strings.Join([]string{
		"pingpong 2 1 32", "pingpong 2 16 32", "pingpong 2 256 32", "compute 1 256 128",
		"pingpong 2 1024 32", "compute 1 1024 128",
		"bcast 2 1 8", "reduce 2 1 8", "scan 2 1 8", "bcast 2 16 8", "reduce 2 16 8", "scan 2 16 8",
		"bcast 2 256 8", "reduce 2 256 8", "scan 2 256 8", "bcast 2 1024 8", "reduce 2 1024 8", "scan 2 1024 8",
		"bcast 4 1 8", "reduce 4 1 8", "scan 4 1 8", "bcast 4 16 8", "reduce 4 16 8", "scan 4 16 8",
		"bcast 4 256 8", "reduce 4 256 8", "scan 4 256 8", "bcast 4 1024 8", "reduce 4 1024 8", "scan 4 1024 8",
	}, ", ")
	if got := render(QuickConfig()); got != quick {
		t.Errorf("QuickConfig plan:\n got %s\nwant %s", got, quick)
	}
	def := []string{
		"pingpong 2 1 128", "pingpong 2 4 128", "pingpong 2 16 128", "pingpong 2 64 128", "compute 1 64 2048",
		"pingpong 2 256 128", "compute 1 256 512", "pingpong 2 1024 128", "compute 1 1024 512",
		"pingpong 2 4096 128", "compute 1 4096 512",
		"bcast 2 1 32", "reduce 2 1 32", "scan 2 1 32",
		"bcast 2 4 32", "reduce 2 4 32", "scan 2 4 32",
		"bcast 2 16 32", "reduce 2 16 32", "scan 2 16 32",
		"bcast 2 64 32", "reduce 2 64 32", "scan 2 64 32",
		"bcast 2 256 32", "reduce 2 256 32", "scan 2 256 32",
		"bcast 2 1024 32", "reduce 2 1024 32", "scan 2 1024 32",
		"bcast 2 4096 32", "reduce 2 4096 32", "scan 2 4096 32",
		"bcast 4 1 32", "reduce 4 1 32", "scan 4 1 32",
		"bcast 4 4 32", "reduce 4 4 32", "scan 4 4 32",
		"bcast 4 16 32", "reduce 4 16 32", "scan 4 16 32",
		"bcast 4 64 32", "reduce 4 64 32", "scan 4 64 32",
		"bcast 4 256 32", "reduce 4 256 32", "scan 4 256 32",
		"bcast 4 1024 32", "reduce 4 1024 32", "scan 4 1024 32",
		"bcast 4 4096 32", "reduce 4 4096 32", "scan 4 4096 32",
		"bcast 8 1 32", "reduce 8 1 32", "scan 8 1 32",
		"bcast 8 4 32", "reduce 8 4 32", "scan 8 4 32",
		"bcast 8 16 32", "reduce 8 16 32", "scan 8 16 32",
		"bcast 8 64 32", "reduce 8 64 32", "scan 8 64 32",
		"bcast 8 256 32", "reduce 8 256 32", "scan 8 256 32",
		"bcast 8 1024 32", "reduce 8 1024 32", "scan 8 1024 32",
		"bcast 8 4096 32", "reduce 8 4096 32", "scan 8 4096 32",
	}
	if got, want := render(DefaultConfig()), strings.Join(def, ", "); got != want {
		t.Errorf("DefaultConfig plan:\n got %s\nwant %s", got, want)
	}
	// Without a block size of 64 words or more, compute runs once at 64.
	if got, want := render(Config{Ms: []int{1, 16}, Rounds: 2}), "pingpong 2 1 8, pingpong 2 16 8, compute 1 64 128"; got != want {
		t.Errorf("small-block plan: got %s, want %s", got, want)
	}
}
