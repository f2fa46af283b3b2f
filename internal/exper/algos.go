package exper

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the algorithm-portfolio sweep: it runs each portfolio
// algorithm (coll/algo.go) head-to-head against the §4.1 butterfly, the
// measurement under both the BENCH_native algorithm records and calib's
// crossover validation. The substrate is an AlgoMeasurer: the native
// backend (NativeAlgoMeasurer) or OS-process ranks
// (MultiProcAlgoMeasurer, multiproc.go).

// MeasureCollective measures the wall-clock makespan in nanoseconds of
// one collective executed with the given portfolio algorithm (through
// sel.Run) on the native backend machine nm, taking the minimum over reps
// runs. segments is the pipeline's segment count and is ignored by every
// other algorithm. The caller is expected to warm the machine up with one
// discarded call so mailbox and arena allocation stays out of the
// minimum.
func MeasureCollective(nm *backend.Machine, collective string, a cost.Algo, op *algebra.Op, in []algebra.Value, segments, reps int) float64 {
	if reps < 1 {
		reps = 1
	}
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		res := nm.Run(func(pr *backend.Proc) {
			sel.Run(pr, collective, a, op, in[pr.Rank()], segments)
		})
		if ns := float64(res.Makespan.Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// SweepCrossover locates the boundary between the block sizes at which a
// side wins and those at which it loses. won are the sweep verdicts at
// the ascending block sizes ms; they give the bracket, and at most eight
// bisection steps with fresh wins() measurements sharpen the boundary
// inside it, so the resolution does not depend on the sweep's
// granularity.
//
// rising says the side wins from some block size on — an algorithm
// overtaking the butterfly: the result is the smallest winning m,
// bracketed by the first winning sweep point. Otherwise the side wins up
// to some block size — a fused rule: the result is the largest winning
// m, bracketed by the last winning sweep point. Either way it is 0 when
// the side never wins in the sweep and the sweep's end point when it
// already wins there.
func SweepCrossover(ms []int, won []bool, rising bool, wins func(m int) bool) int {
	n := len(won)
	i := -1 // the winning sweep point nearest the losing side
	for k := range won {
		j := k
		if !rising {
			j = n - 1 - k
		}
		if won[j] {
			i = j
			break
		}
	}
	switch {
	case i < 0:
		return 0
	case rising && i == 0, !rising && i == n-1:
		return ms[i]
	}
	next := i - 1 // the losing neighbour
	if !rising {
		next = i + 1
	}
	win, lose := ms[i], ms[next]
	for k := 0; k < 8 && max(win-lose, lose-win) > 1; k++ {
		mid := (win + lose) / 2
		if wins(mid) {
			win = mid
		} else {
			lose = mid
		}
	}
	return win
}

// NativeAlgoConfig sizes the algorithm-portfolio wall-clock sweep.
type NativeAlgoConfig struct {
	// Ps are the group sizes; include a non-power-of-two to exercise the
	// rabenseifner fold path.
	Ps []int
	// Ms are the block sizes swept; per algorithm only the applicable
	// subset is measured (the chunked algorithms need m ≥ p or 2p).
	Ms []int
	// Reps is the number of repetitions per measurement (minimum taken).
	Reps int
	// Ts and Tw are the calibrated cost-model parameters recorded with
	// each row and used for the predicted crossovers (they do not affect
	// the measurement — the host's real costs apply).
	Ts, Tw float64
}

// DefaultNativeAlgoConfig sweeps the portfolio on 7 and 8 ranks across
// block sizes spanning the start-up-dominated and bandwidth-dominated
// regimes.
func DefaultNativeAlgoConfig() NativeAlgoConfig {
	return NativeAlgoConfig{Ps: []int{7, 8}, Ms: []int{16, 256, 1024, 4096, 16384}, Reps: 7}
}

// AlgoMeasurer is the substrate of the portfolio sweep: for one group
// size p it returns the measurement function of the head-to-head
// comparison, which runs one portfolio pairing at block size m (with
// the pipeline's segment count) and returns the butterfly's and the
// algorithm's wall-clock nanoseconds.
type AlgoMeasurer func(p int) func(collective string, a cost.Algo, m, segments int) (bfNs, algNs float64, err error)

// NativeAlgoMeasurer measures on one native backend machine per group
// size with the given transport: the seeded inputs (seed 11), one
// discarded warm-up run of the algorithm, then the butterfly and the
// algorithm, each the minimum over reps runs.
func NativeAlgoMeasurer(reps int, transport backend.TransportMode) AlgoMeasurer {
	return func(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
		nm := backend.New(p)
		nm.Transport = transport
		return func(collective string, a cost.Algo, m, segments int) (bfNs, algNs float64, err error) {
			in := mpbackend.SeededInputs(11, p, m)
			MeasureCollective(nm, collective, a, algebra.Add, in, segments, 1) // warm-up
			bfNs = MeasureCollective(nm, collective, cost.AlgoButterfly, algebra.Add, in, 0, reps)
			algNs = MeasureCollective(nm, collective, a, algebra.Add, in, segments, reps)
			return bfNs, algNs, nil
		}
	}
}

// AlgoGroup is one (collective, algorithm, group size) group of the
// portfolio sweep; its JSON form is the sweep part of calib's
// algorithm-validation records.
type AlgoGroup struct {
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
	// predicted by the cost lines at the sweep's ts/tw (cost.BreakEven)
	// and measured by bisection between sweep points. 0 means the
	// algorithm never won within the sweep.
	PredCross int `json:"predicted_crossover"`
	MeasCross int `json:"measured_crossover"`
}

// SweepAlgos measures every portfolio algorithm head-to-head against the
// butterfly with the given measurer, at every group size of cfg and
// every block size the algorithm can run at (cost.Applicable), and
// returns one group per (collective, algorithm, p) that has any. A
// failed sweep measurement fails the sweep; a failed bisection
// measurement counts as a loss, since the bracketing sweep points
// already succeeded and the crossover only degrades to sweep resolution.
func SweepAlgos(cfg NativeAlgoConfig, measurer AlgoMeasurer) ([]AlgoGroup, error) {
	if len(cfg.Ps) == 0 || len(cfg.Ms) == 0 {
		return nil, fmt.Errorf("exper: the algorithm sweep needs group and block sizes")
	}
	maxM := cfg.Ms[len(cfg.Ms)-1]
	var out []AlgoGroup
	for _, p := range cfg.Ps {
		if p < 2 {
			return nil, fmt.Errorf("exper: the algorithm sweep needs p ≥ 2, got %d", p)
		}
		measureAt := measurer(p)
		base := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: p}
		for _, collective := range cost.Collectives() {
			for _, a := range cost.Algos(collective)[1:] {
				measure := func(m int) (bfNs, algNs float64, err error) {
					pp := base
					pp.M = m
					return measureAt(collective, a, m, cost.PipelineSegments(pp))
				}
				g := AlgoGroup{Collective: collective, Algo: a, P: p}
				var won []bool
				for _, m := range cfg.Ms {
					pp := base
					pp.M = m
					if !cost.Applicable(collective, a, pp) {
						continue
					}
					bfNs, algNs, err := measure(m)
					if err != nil {
						return nil, err
					}
					g.Ms = append(g.Ms, m)
					g.ButterflyNs = append(g.ButterflyNs, bfNs)
					g.AlgoNs = append(g.AlgoNs, algNs)
					won = append(won, algNs < bfNs)
				}
				if len(g.Ms) == 0 {
					continue
				}
				g.PredCross = cost.BreakEven(collective, a, base, maxM)
				g.MeasCross = SweepCrossover(g.Ms, won, true, func(m int) bool {
					bfNs, algNs, err := measure(m)
					return err == nil && algNs < bfNs
				})
				out = append(out, g)
			}
		}
	}
	return out, nil
}

// Algos runs the portfolio sweep with the given measurer and returns its
// records, marked with backendName — the algorithm rows of
// BENCH_native.json behind docs/ALGORITHMS.md's crossover table. Rows
// pair up like the fusion suite's: per (collective, algorithm, p, m) an
// "lhs" row carries the butterfly and an "rhs" row the algorithm, with
// Speedup the ratio, and each rhs row carries its group's predicted and
// measured crossover block sizes. cfg.Ts/cfg.Tw should be the
// calibration of the measured substrate, so the predicted crossovers are
// the ones the calibrated model would act on there.
func Algos(cfg NativeAlgoConfig, backendName string, measurer AlgoMeasurer) ([]NativeBenchRecord, error) {
	groups, err := SweepAlgos(cfg, measurer)
	if err != nil {
		return nil, err
	}
	reps := max(cfg.Reps, 1)
	var out []NativeBenchRecord
	for _, g := range groups {
		rule := fmt.Sprintf("Algo-%s/%s", g.Collective, g.Algo)
		for i, m := range g.Ms {
			params := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: g.P, M: m}
			out = append(out,
				NativeBenchRecord{
					Backend: backendName, Reps: reps, Params: params,
					Op: g.Collective + "(+)", Rule: rule, Side: "lhs",
					P: g.P, M: m, NsPerOp: g.ButterflyNs[i], Speedup: 1,
				},
				NativeBenchRecord{
					Backend: backendName, Reps: reps, Params: params,
					Op: fmt.Sprintf("%s(+)@%s", g.Collective, g.Algo), Rule: rule, Side: "rhs",
					P: g.P, M: m, NsPerOp: g.AlgoNs[i], Speedup: g.ButterflyNs[i] / g.AlgoNs[i],
					PredCross: g.PredCross, MeasCross: g.MeasCross,
				})
		}
	}
	return out, nil
}

// FormatAlgoCrossovers renders the per-(algorithm, p) crossover summary
// of an algorithm sweep's records: one line per group with the predicted
// and measured break-even block sizes.
func FormatAlgoCrossovers(recs []NativeBenchRecord) string {
	out := fmt.Sprintf("%-28s %4s %12s %12s\n", "Algorithm", "p", "predicted m", "measured m")
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Side != "rhs" {
			continue
		}
		key := fmt.Sprintf("%s/%d", r.Rule, r.P)
		if seen[key] {
			continue
		}
		seen[key] = true
		pred, meas := fmt.Sprintf("%d", r.PredCross), fmt.Sprintf("%d", r.MeasCross)
		if r.PredCross == 0 {
			pred = "never"
		}
		if r.MeasCross == 0 {
			meas = "never"
		}
		out += fmt.Sprintf("%-28s %4d %12s %12s\n", r.Rule, r.P, pred, meas)
	}
	return out
}
