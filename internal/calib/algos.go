package calib

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/exper"
)

// AlgoValidation is one (collective, algorithm, group size) record of
// the portfolio validation: the sweep group of the algorithm against the
// §4.1 butterfly (exper.AlgoGroup, with the crossover the calibrated cost
// lines predict and the one the substrate measures), plus their
// disagreement. Where the rule validation's crossover is the largest
// block at which a fusion still wins, an algorithm's crossover is the
// smallest block at which it first beats the butterfly — the portfolio
// wins in the bandwidth-dominated regime, the rules in the
// start-up-dominated one.
type AlgoValidation struct {
	exper.AlgoGroup
	// AbsErr and RelErr quantify the prediction error:
	// |predicted − measured| and the same relative to the measured
	// crossover (relative to the sweep cap when the measured crossover
	// is 0).
	AbsErr int     `json:"abs_err"`
	RelErr float64 `json:"rel_err"`
	// Agreement is the fraction of sweep points where the calibrated
	// model's winner matches the measured one — the accuracy of the
	// selection layer's choices on this machine.
	Agreement float64 `json:"agreement"`
}

// ValidateAlgos runs every portfolio algorithm head-to-head against the
// butterfly on the native backend across the configured sweep and
// reports the predicted-vs-measured crossover per (collective,
// algorithm, group size) — the calibration evidence behind the
// selection layer (coll/sel). Predictions use the calibrated parameters
// of fit; measurements take the minimum over cfg.Reps runs. Only the
// block sizes the algorithm can run at (cost.Applicable) are measured.
func ValidateAlgos(fit Fit, cfg Config) ([]AlgoValidation, error) {
	return validateAlgos(fit, cfg, exper.NativeAlgoMeasurer(cfg.Reps, backend.TransportZeroCopy))
}

// ValidateAlgosMP is ValidateAlgos across process boundaries
// (exper.MultiProcAlgoMeasurer), so the crossovers recorded are the ones
// the multi-process transport actually exhibits. fit must be the
// multi-process fit — its ts/tw drive the predicted side.
func ValidateAlgosMP(fit Fit, cfg Config) ([]AlgoValidation, error) {
	return validateAlgos(fit, cfg, exper.MultiProcAlgoMeasurer(cfg.Reps))
}

// validateAlgos runs the portfolio sweep (exper.SweepAlgos) at the
// algorithm group sizes — cfg.AlgoPs, or cfg.ValidateP when empty — and
// the validation block sizes, and adds agreement and error to each of
// its groups.
func validateAlgos(fit Fit, cfg Config, measurer exper.AlgoMeasurer) ([]AlgoValidation, error) {
	ps := cfg.AlgoPs
	if len(ps) == 0 {
		ps = []int{cfg.ValidateP}
	}
	groups, err := exper.SweepAlgos(exper.NativeAlgoConfig{
		Ps: ps, Ms: cfg.ValidateMs, Reps: cfg.Reps, Ts: fit.Ts, Tw: fit.Tw,
	}, measurer)
	if err != nil {
		return nil, err
	}
	maxM := cfg.ValidateMs[len(cfg.ValidateMs)-1]
	out := make([]AlgoValidation, 0, len(groups))
	for _, g := range groups {
		v := AlgoValidation{AlgoGroup: g}
		agree := 0
		for i, m := range g.Ms {
			pp := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: g.P, M: m}
			c, _ := cost.AlgoCost(g.Collective, g.Algo, pp)
			bf, _ := cost.AlgoCost(g.Collective, cost.AlgoButterfly, pp)
			if (c < bf) == (g.AlgoNs[i] < g.ButterflyNs[i]) {
				agree++
			}
		}
		v.Agreement = float64(agree) / float64(len(g.Ms))
		v.AbsErr = abs(v.PredCross - v.MeasCross)
		denom := v.MeasCross
		if denom == 0 {
			denom = maxM
		}
		v.RelErr = float64(v.AbsErr) / float64(denom)
		out = append(out, v)
	}
	return out, nil
}

// FormatAlgoValidation renders the per-algorithm crossover table.
func FormatAlgoValidation(val []AlgoValidation) string {
	if len(val) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Algorithm crossovers (smallest m beating the butterfly, predicted with calibrated ts/tw) ==\n")
	fmt.Fprintf(&b, "%-10s %-13s %4s %12s %12s %8s %8s %7s\n",
		"Collective", "algorithm", "p", "predicted m", "measured m", "abs err", "rel err", "agree")
	for _, v := range val {
		pred, meas := fmt.Sprintf("%d", v.PredCross), fmt.Sprintf("%d", v.MeasCross)
		if v.PredCross == 0 {
			pred = "never"
		}
		if v.MeasCross == 0 {
			meas = "never"
		}
		fmt.Fprintf(&b, "%-10s %-13s %4d %12s %12s %8d %7.0f%% %6.0f%%\n",
			v.Collective, v.Algo, v.P, pred, meas, v.AbsErr, 100*v.RelErr, 100*v.Agreement)
	}
	return b.String()
}
