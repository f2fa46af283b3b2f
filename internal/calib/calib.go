// Package calib closes the paper's predict-vs-measure loop on the native
// backend: it measures this machine's cost-model parameters instead of
// assuming them, so the cost-guided optimizer of package rules decides
// with numbers that are true here.
//
// The §4.1 model prices a program as a·ts + b·m·tw + c·m — a message
// start-ups, b·m words shipped, c·m elementary operations — with ts and
// tw expressed in multiples of one elementary operation. Calibration
// runs a small family of microbenchmarks whose model coefficients are
// known exactly (Coef): a two-rank ping-pong (start-up and transfer, no
// compute), a pure local compute loop (the unit), and the three
// butterfly collectives bcast/reduce/scan at several group and block
// sizes (start-up, transfer and compute mixed in three different
// ratios, which is what makes the three parameters separable). A
// weighted least-squares fit over all samples (FitSamples) recovers
// TsNs, TwNs and TcNs — the start-up, per-word and per-operation costs
// in nanoseconds — and reports residuals; dividing by TcNs yields the
// dimensionless Ts and Tw that cost.Params expects.
//
// Timing methodology (shared with package backend): every probe run
// releases all ranks from a barrier-synchronized start, each rank
// records its own elapsed wall time, and the sample's time is the
// makespan — the last rank's finish. Each probe iterates its operation
// Rounds times inside one run to amortize timer resolution, and takes
// the minimum over Reps runs as the undisturbed estimate (the standard
// noise filter for wall-clock microbenchmarks).
//
// Validate then replays every optimization rule's unfused and fused
// form at a sweep of block sizes and compares the measured break-even
// block size with the one the calibrated closed forms predict — the
// whole report (fit, samples, per-rule crossovers with absolute and
// relative error) is emitted machine-readably by WriteReport; see the
// committed CALIB_native.json.
package calib

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/mpbackend"
)

// Probe kinds. Each has a distinct (start-up, transfer, compute)
// coefficient shape — see Coef.
const (
	// ProbePingPong bounces a block between two ranks: pure start-up
	// plus transfer, no compute.
	ProbePingPong = "pingpong"
	// ProbeCompute folds a base operator over a block on one rank: pure
	// compute, no communication — the probe that pins down the unit.
	ProbeCompute = "compute"
	// ProbeBcast, ProbeReduce and ProbeScan run the butterfly
	// collectives: log p start-ups with 0, 1 and 2 elementary
	// operations per transferred word respectively.
	ProbeBcast  = "bcast"
	ProbeReduce = "reduce"
	ProbeScan   = "scan"
)

// Sample is one calibration observation: a probe run's cost-model
// coefficients and its measured wall-clock time.
type Sample struct {
	// Probe is the probe kind.
	Probe string `json:"probe"`
	// P and M are the group size and per-rank block size in words.
	P int `json:"p"`
	M int `json:"m"`
	// Rounds is how many times the run iterated the probe operation.
	Rounds int `json:"rounds"`
	// CoefTs, CoefTw and CoefC are the model coefficients of the whole
	// run: predicted ns = CoefTs·TsNs + CoefTw·TwNs + CoefC·TcNs.
	CoefTs float64 `json:"coef_ts"`
	CoefTw float64 `json:"coef_tw"`
	CoefC  float64 `json:"coef_c"`
	// Ns is the measured makespan in nanoseconds (minimum over the
	// configured repetitions).
	Ns float64 `json:"ns"`
}

// Coef returns the cost-model coefficients of one probe run of rounds
// iterations at group size p and block size m: the number of message
// start-ups, word transfers, and elementary operations that bound the
// run's wall time. The group-size factor is ceil(log2 p), matching
// cost.Params.LogP on non-power-of-two groups.
//
// workers is the host's available parallelism (runtime.GOMAXPROCS for a
// real run; ≤ 0 means unlimited). With workers ≥ p the coefficients are
// exactly the §4.1 critical-path counts — log p phases of one message
// and 0/1/2 combines for bcast/reduce/scan, equations (15)–(17). With
// fewer cores than ranks the ranks' concurrent phase work serializes,
// so each coefficient becomes max(critical path, total work ÷ workers):
// a binomial bcast/reduce ships p−1 messages in total, a butterfly scan
// p·log p messages and 1.5·p·log p combines. Charging the serialized
// counts keeps the fitted TsNs/TcNs the true single-stream costs on any
// host instead of silently inflating them.
func Coef(probe string, p, m, rounds, workers int) (a, b, c float64) {
	logp := 0.0
	if p > 1 {
		logp = math.Ceil(math.Log2(float64(p)))
	}
	w := float64(workers)
	if workers <= 0 {
		w = math.Inf(1)
	}
	r, mf, pf := float64(rounds), float64(m), float64(p)
	var msgs, ops float64
	switch probe {
	case ProbePingPong:
		// One round trip is two sequential one-way messages.
		return 2 * r, 2 * r * mf, 0
	case ProbeCompute:
		return 0, 0, r * mf
	case ProbeBcast:
		msgs, ops = math.Max(logp, (pf-1)/w), 0
	case ProbeReduce:
		// One combine per received message, p−1 messages on a binomial
		// tree, log p of them on the critical path.
		msgs = math.Max(logp, (pf-1)/w)
		ops = msgs
	case ProbeScan:
		// Butterfly: every phase exchanges p messages and combines the
		// running total everywhere plus the prefix on half the ranks.
		msgs = math.Max(logp, pf*logp/w)
		ops = math.Max(2*logp, 1.5*pf*logp/w)
	default:
		panic(fmt.Sprintf("calib: unknown probe %q", probe))
	}
	return r * msgs, r * msgs * mf, r * ops * mf
}

// Config sizes a calibration run.
type Config struct {
	// Ps are the group sizes for the collective probes.
	Ps []int
	// Ms are the block sizes swept by every probe.
	Ms []int
	// Reps is the number of repetitions per sample (minimum taken),
	// after one discarded warm-up run.
	Reps int
	// Rounds is the base iteration count inside one run; individual
	// probes scale it to keep each run well above timer resolution.
	Rounds int
	// ValidateP is the group size of the rule-validation sweep (a power
	// of two, so the Local rules participate).
	ValidateP int
	// ValidateMs is the block-size sweep of the rule validation; its
	// last element caps the crossover search.
	ValidateMs []int
	// AlgoPs are the group sizes of the algorithm-portfolio validation
	// (ValidateAlgos); include a non-power-of-two to exercise the
	// rabenseifner fold path. Empty falls back to {ValidateP}.
	AlgoPs []int
}

// DefaultConfig is the full calibration: three group sizes, a
// seven-point geometric block-size sweep, and a rule validation on
// eight ranks.
func DefaultConfig() Config {
	return Config{
		Ps:         []int{2, 4, 8},
		Ms:         []int{1, 4, 16, 64, 256, 1024, 4096},
		Reps:       5,
		Rounds:     32,
		ValidateP:  8,
		ValidateMs: []int{1, 4, 16, 64, 256, 1024, 4096},
		AlgoPs:     []int{7, 8},
	}
}

// QuickConfig is a seconds-scale smoke configuration for CI and tests:
// same probe shapes, minimal sweeps. The sweep reaches m = 1024 so the
// per-word coefficient stays identifiable on the multi-process
// transport — with small blocks only, scheduling noise can flip the
// fitted tw's sign, and the multiproc CI smoke asserts tw > 0.
func QuickConfig() Config {
	return Config{
		Ps:         []int{2, 4},
		Ms:         []int{1, 16, 256, 1024},
		Reps:       2,
		Rounds:     8,
		ValidateP:  4,
		ValidateMs: []int{1, 64},
		AlgoPs:     []int{4},
	}
}

// plan returns the probe plan of a configuration in measurement order:
// the samples to take, with their probe, group size, block size and
// in-run iteration count, not yet timed. Ping-pong runs at every block
// size with 4×Rounds round trips. The compute probe only runs at block
// sizes of 64 words and up (once at 64 when the sweep has none), with
// Rounds·max(16, 4096/m) iterations so every size rises above timer
// resolution: below 64 words the per-ApplyInto dispatch overhead
// dominates the per-word cost and would contaminate the fitted unit — in
// the collectives that overhead is a per-message effect and lands in
// TsNs, where it belongs. The butterfly collectives run at every group
// size p ≥ 2 and every block size, Rounds times.
func plan(cfg Config) []Sample {
	var out []Sample
	computeOnce := true
	for _, m := range cfg.Ms {
		out = append(out, Sample{Probe: ProbePingPong, P: 2, M: m, Rounds: cfg.Rounds * 4})
		if m >= 64 {
			out = append(out, Sample{Probe: ProbeCompute, P: 1, M: m, Rounds: cfg.Rounds * max(16, 4096/m)})
			computeOnce = false
		}
	}
	if computeOnce {
		out = append(out, Sample{Probe: ProbeCompute, P: 1, M: 64, Rounds: cfg.Rounds * max(16, 4096/64)})
	}
	for _, p := range cfg.Ps {
		if p < 2 {
			continue
		}
		for _, m := range cfg.Ms {
			for _, probe := range []string{ProbeBcast, ProbeReduce, ProbeScan} {
				out = append(out, Sample{Probe: probe, P: p, M: m, Rounds: cfg.Rounds})
			}
		}
	}
	return out
}

// probeMeasurer is the substrate of the calibration: it times one
// planned sample — the minimum over reps repetitions, after one
// discarded warm-up, of the probe run's makespan in nanoseconds.
type probeMeasurer func(s Sample, reps int) (float64, error)

// measure takes every sample of the configuration's plan with the
// substrate's measurer and fills in its time and its model coefficients
// for a host of the given parallelism.
func measure(cfg Config, workers int, run probeMeasurer) ([]Sample, error) {
	samples := plan(cfg)
	for i := range samples {
		s := &samples[i]
		ns, err := run(*s, cfg.Reps)
		if err != nil {
			return nil, err
		}
		s.Ns = ns
		s.CoefTs, s.CoefTw, s.CoefC = Coef(s.Probe, s.P, s.M, s.Rounds, workers)
	}
	return samples, nil
}

// Measure runs every probe of the configuration on the native backend
// and returns the samples, ready for FitSamples. The coefficients assume
// GOMAXPROCS workers.
func Measure(cfg Config) ([]Sample, error) {
	return measure(cfg, runtime.GOMAXPROCS(0), nativeProbe)
}

// nativeProbe times a sample on a fresh native machine of s.P ranks,
// each running its mpbackend.ProbeKernel operation; the kernels are
// built before the first run.
func nativeProbe(s Sample, reps int) (float64, error) {
	ops := make([]func(coll.Comm), s.P)
	for r := range ops {
		op, err := mpbackend.ProbeKernel(s.Probe, r, s.P, s.M, s.Rounds)
		if err != nil {
			return 0, err
		}
		ops[r] = op
	}
	mach := backend.New(s.P)
	best := math.MaxFloat64
	for i := 0; i <= reps; i++ {
		res := mach.Run(func(pr *backend.Proc) { ops[pr.Rank()](pr) })
		if ns := float64(res.Makespan.Nanoseconds()); i > 0 && ns < best {
			best = ns
		}
	}
	return best, nil
}

// Calibrate measures and fits in one call.
func Calibrate(cfg Config) (Fit, []Sample, error) {
	samples, err := Measure(cfg)
	if err != nil {
		return Fit{}, nil, err
	}
	fit, err := FitSamples(samples)
	return fit, samples, err
}
