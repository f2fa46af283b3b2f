package calib

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
)

func TestValidateAlgosCoversPortfolio(t *testing.T) {
	cfg := QuickConfig()
	cfg.AlgoPs = []int{4, 7}
	cfg.ValidateMs = []int{16, 256}
	fit := Fit{TsNs: 600, TwNs: 0, TcNs: 4, Ts: 150, Tw: 0.01}
	val, err := ValidateAlgos(fit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 allreduce algorithms + 1 reduce algorithm on each of two group
	// sizes.
	if len(val) != 8 {
		t.Fatalf("got %d validations, want 8: %+v", len(val), val)
	}
	maxM := cfg.ValidateMs[len(cfg.ValidateMs)-1]
	seen := map[string]bool{}
	for _, v := range val {
		seen[string(v.Algo)] = true
		if len(v.Ms) == 0 || len(v.ButterflyNs) != len(v.Ms) || len(v.AlgoNs) != len(v.Ms) {
			t.Errorf("%s/%s p=%d: ragged sweep %d/%d/%d", v.Collective, v.Algo, v.P,
				len(v.Ms), len(v.ButterflyNs), len(v.AlgoNs))
		}
		for _, m := range v.Ms {
			pp := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: v.P, M: m}
			if !cost.Applicable(v.Collective, v.Algo, pp) {
				t.Errorf("%s/%s p=%d: swept inapplicable m=%d", v.Collective, v.Algo, v.P, m)
			}
		}
		if v.PredCross < 0 || v.PredCross > maxM || v.MeasCross < 0 || v.MeasCross > maxM {
			t.Errorf("%s/%s p=%d: crossovers (%d, %d) out of [0, %d]",
				v.Collective, v.Algo, v.P, v.PredCross, v.MeasCross, maxM)
		}
		if v.Agreement < 0 || v.Agreement > 1 {
			t.Errorf("%s/%s p=%d: agreement %g out of [0, 1]", v.Collective, v.Algo, v.P, v.Agreement)
		}
	}
	for _, a := range []cost.Algo{cost.AlgoRabenseifner, cost.AlgoRing, cost.AlgoRingBi, cost.AlgoPipeline} {
		if !seen[string(a)] {
			t.Errorf("portfolio validation missed %s", a)
		}
	}

	text := FormatAlgoValidation(val)
	for _, want := range []string{"Algorithm crossovers", "rabenseifner", "ring-bi", "pipeline"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted validation lacks %q:\n%s", want, text)
		}
	}
}

func TestValidateAlgosFallsBackToValidateP(t *testing.T) {
	cfg := QuickConfig()
	cfg.AlgoPs = nil
	cfg.ValidateMs = []int{64}
	val, err := ValidateAlgos(Fit{Ts: 100, Tw: 0.01, TcNs: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range val {
		if v.P != cfg.ValidateP {
			t.Errorf("expected the ValidateP fallback (p=%d), got p=%d", cfg.ValidateP, v.P)
		}
	}
}

// TestValidateAlgosAgreementAndError pins what the validation adds to
// the portfolio sweep's groups — agreement, absolute and relative
// crossover error — over a deterministic fake substrate: the butterfly
// costs 1000+m, rabenseifner 1500+m/2, ring twice the butterfly,
// ring-bi 1, the reduce pipeline 1500+m/4.
func TestValidateAlgosAgreementAndError(t *testing.T) {
	fake := func(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
		return func(collective string, a cost.Algo, m, segments int) (float64, float64, error) {
			bf := float64(1000 + m)
			switch a {
			case cost.AlgoRabenseifner:
				return bf, float64(1500 + m/2), nil
			case cost.AlgoRing:
				return bf, 2 * bf, nil
			case cost.AlgoRingBi:
				return bf, 1, nil
			}
			return bf, float64(1500 + m/4), nil
		}
	}
	cfg := Config{ValidateP: 8, ValidateMs: []int{16, 256, 4096}, AlgoPs: []int{4}, Reps: 3}
	val, err := validateAlgos(Fit{Ts: 100, Tw: 0.5}, cfg, fake)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range val {
		got = append(got, fmt.Sprintf("%s/%s p=%d pred=%d meas=%d agree=%.4f abs=%d rel=%.4f",
			v.Collective, v.Algo, v.P, v.PredCross, v.MeasCross, v.Agreement, v.AbsErr, v.RelErr))
	}
	want := []string{
		"allreduce/rabenseifner p=4 pred=134 meas=1006 agree=0.6667 abs=872 rel=0.8668",
		"allreduce/ring p=4 pred=267 meas=0 agree=0.6667 abs=267 rel=0.0652",
		"allreduce/ring-bi p=4 pred=214 meas=16 agree=0.6667 abs=198 rel=12.3750",
		"reduce/pipeline p=4 pred=534 meas=676 agree=1.0000 abs=142 rel=0.2101",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("validation:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
