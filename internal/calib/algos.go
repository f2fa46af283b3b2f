package calib

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/mpbackend"
)

// AlgoValidation is one (collective, algorithm, group size) record of
// the portfolio validation: the wall-clock sweep of the algorithm
// against the §4.1 butterfly, the crossover block size the calibrated
// cost lines predict, the one the native backend measures, and their
// disagreement. Where the rule validation's crossover is the largest
// block at which a fusion still wins, an algorithm's crossover is the
// smallest block at which it first beats the butterfly — the portfolio
// wins in the bandwidth-dominated regime, the rules in the
// start-up-dominated one.
type AlgoValidation struct {
	// Collective and Algo identify the measured pairing.
	Collective string    `json:"collective"`
	Algo       cost.Algo `json:"algo"`
	// P is the group size of the sweep.
	P int `json:"p"`
	// Ms, ButterflyNs and AlgoNs are the sweep: the applicable block
	// sizes and the measured wall-clock makespans of both sides.
	Ms          []int     `json:"ms"`
	ButterflyNs []float64 `json:"butterfly_ns"`
	AlgoNs      []float64 `json:"algo_ns"`
	// PredCross and MeasCross are the break-even block sizes — the
	// smallest m at which the algorithm undercuts the butterfly —
	// predicted by the calibrated cost lines (cost.BreakEven) and
	// measured by bisection on the native backend. 0 means the
	// algorithm never won within the sweep.
	PredCross int `json:"predicted_crossover"`
	MeasCross int `json:"measured_crossover"`
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

// algoMeasurer produces, for one group size p, the measurement function
// of the head-to-head sweep: given a portfolio pairing it returns the
// butterfly's and the algorithm's wall-clock nanoseconds. Factoring the
// measurer out lets the native and multi-process validations share the
// sweep and crossover logic verbatim.
type algoMeasurer func(p int) func(collective string, a cost.Algo, m, segments int) (bfNs, algNs float64, err error)

// ValidateAlgos runs every portfolio algorithm head-to-head against the
// butterfly on the native backend across the configured sweep and
// reports the predicted-vs-measured crossover per (collective,
// algorithm, group size) — the calibration evidence behind the
// selection layer (coll/sel). Predictions use the calibrated parameters
// of fit; measurements take the minimum over cfg.Reps runs. Only the
// block sizes the algorithm can run at (cost.Applicable) are measured.
func ValidateAlgos(fit Fit, cfg Config) ([]AlgoValidation, error) {
	op := algebra.Add
	return validateAlgosWith(fit, cfg, func(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
		nm := backend.New(p)
		return func(collective string, a cost.Algo, m, segments int) (bfNs, algNs float64, err error) {
			in := mpbackend.SeededInputs(11, p, m)
			exper.MeasureCollective(nm, collective, a, op, in, segments, 1) // warm-up
			bfNs = exper.MeasureCollective(nm, collective, cost.AlgoButterfly, op, in, 0, cfg.Reps)
			algNs = exper.MeasureCollective(nm, collective, a, op, in, segments, cfg.Reps)
			return bfNs, algNs, nil
		}
	})
}

// ValidateAlgosMP is ValidateAlgos across process boundaries: the same
// sweep, measured with mpbackend's "collective" jobs
// (exper.MeasureCollectiveMP), so the crossovers recorded are the ones
// the multi-process transport actually exhibits. fit must be the
// multi-process fit — its ts/tw drive the predicted side.
func ValidateAlgosMP(fit Fit, cfg Config) ([]AlgoValidation, error) {
	return validateAlgosWith(fit, cfg, func(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
		return func(collective string, a cost.Algo, m, segments int) (bfNs, algNs float64, err error) {
			if bfNs, err = exper.MeasureCollectiveMP(collective, cost.AlgoButterfly, p, m, 0, cfg.Reps); err != nil {
				return 0, 0, err
			}
			algNs, err = exper.MeasureCollectiveMP(collective, a, p, m, segments, cfg.Reps)
			return bfNs, algNs, err
		}
	})
}

// validateAlgosWith is the transport-independent sweep: it walks every
// (collective, algorithm, group size), measures the applicable block
// sizes with the given measurer, and derives agreement and the
// predicted-vs-measured crossover.
func validateAlgosWith(fit Fit, cfg Config, measurer algoMeasurer) ([]AlgoValidation, error) {
	ps := cfg.AlgoPs
	if len(ps) == 0 {
		ps = []int{cfg.ValidateP}
	}
	ms := cfg.ValidateMs
	if len(ms) == 0 {
		return nil, fmt.Errorf("calib: algorithm validation needs a non-empty block-size sweep")
	}
	maxM := ms[len(ms)-1]
	var out []AlgoValidation
	for _, p := range ps {
		if p < 2 {
			return nil, fmt.Errorf("calib: algorithm validation needs p ≥ 2, got %d", p)
		}
		measureAt := measurer(p)
		base := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: p}
		for _, collective := range cost.Collectives() {
			for _, a := range cost.Algos(collective)[1:] {
				measure := func(m int) (bfNs, algNs float64, err error) {
					pp := base
					pp.M = m
					return measureAt(collective, a, m, cost.PipelineSegments(pp))
				}
				v := AlgoValidation{Collective: collective, Algo: a, P: p}
				agree := 0
				for _, m := range ms {
					pp := base
					pp.M = m
					if !cost.Applicable(collective, a, pp) {
						continue
					}
					bfNs, algNs, err := measure(m)
					if err != nil {
						return nil, err
					}
					v.Ms = append(v.Ms, m)
					v.ButterflyNs = append(v.ButterflyNs, bfNs)
					v.AlgoNs = append(v.AlgoNs, algNs)
					c, _ := cost.AlgoCost(collective, a, pp)
					bf, _ := cost.AlgoCost(collective, cost.AlgoButterfly, pp)
					if (c < bf) == (algNs < bfNs) {
						agree++
					}
				}
				if len(v.Ms) == 0 {
					continue
				}
				v.Agreement = float64(agree) / float64(len(v.Ms))
				v.PredCross = cost.BreakEven(collective, a, base, maxM)
				won := make([]bool, len(v.Ms))
				for i := range v.Ms {
					won[i] = v.AlgoNs[i] < v.ButterflyNs[i]
				}
				v.MeasCross = exper.FirstWinCrossover(v.Ms, won, func(m int) bool {
					// A failed bisection probe counts as a loss; the
					// bracketing sweep points already measured fine, so the
					// crossover just degrades to sweep resolution.
					bfNs, algNs, err := measure(m)
					return err == nil && algNs < bfNs
				})
				v.AbsErr = v.PredCross - v.MeasCross
				if v.AbsErr < 0 {
					v.AbsErr = -v.AbsErr
				}
				denom := v.MeasCross
				if denom == 0 {
					denom = maxM
				}
				v.RelErr = float64(v.AbsErr) / float64(denom)
				out = append(out, v)
			}
		}
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
