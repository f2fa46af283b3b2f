package exper

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// Runner measures one program run and returns its makespan — the
// substrate parameter of the experiment harness. RunVirtual yields
// deterministic cost-model time units; NativeRunner yields wall-clock
// nanoseconds on the goroutine backend. Every figure and table function
// takes a Runner, so each experiment can be re-run for real on the host.
type Runner func(prog core.Program, mach core.Machine, in []algebra.Value) float64

// RunVirtual measures on the virtual machine: deterministic makespans in
// cost-model time units.
var RunVirtual Runner = measure

// NativeRunner measures wall-clock nanoseconds on the native backend
// with the given transport, taking the minimum over reps runs (the
// standard noise filter for wall-clock microbenchmarks; the minimum
// estimates the undisturbed run). TransportZeroCopy hands blocks over by
// reference (the default); TransportCopy deep-copies every payload at
// the send site, modeling a memory-isolated transport on otherwise
// identical machinery. The machine's Ts/Tw are ignored — the host's real
// start-up and bandwidth apply.
//
// Timing methodology (see package backend for the implementation): each
// run spawns one goroutine per rank, releases all ranks together from a
// barrier-synchronized start, lets every rank record its own elapsed
// wall time, and reports the makespan — the finish time of the last
// rank — as the run's cost, mirroring how the §4.1 model prices the
// slowest processor. All reps share one backend machine, so its cached
// mailboxes and scratch arenas warm up on the first rep and the minimum
// reflects the allocation-free steady state.
func NativeRunner(reps int, transport backend.TransportMode) Runner {
	if reps < 1 {
		reps = 1
	}
	return func(prog core.Program, mach core.Machine, in []algebra.Value) float64 {
		nm := backend.New(mach.P)
		nm.Transport = transport
		best := math.MaxFloat64
		for i := 0; i < reps; i++ {
			_, res := core.ExecNative(prog.Term(), nm, in)
			if ns := float64(res.Makespan.Nanoseconds()); ns < best {
				best = ns
			}
		}
		return best
	}
}

// NativeBenchRecord is one row of the native wall-clock suite, the
// machine-readable unit of BENCH_native.json. Each record is
// self-describing: besides the measurement it names the backend, the
// repetition discipline, and the cost-model parameters the run assumed,
// so a record can be audited without the command line that produced it.
type NativeBenchRecord struct {
	// Backend names the measurement backend ("native").
	Backend string `json:"backend"`
	// Reps is the number of repetitions the measurement is the minimum
	// of.
	Reps int `json:"reps"`
	// Params are the cost-model parameters in force for this row —
	// ts/tw as configured (or calibrated), and this row's p and m.
	Params cost.Params `json:"params"`
	// Op is the measured program in the paper's notation.
	Op string `json:"op"`
	// Rule is the optimization rule the program belongs to.
	Rule string `json:"rule"`
	// Side is "lhs" (unfused) or "rhs" (fused).
	Side string `json:"side"`
	// P is the group size, M the per-rank block size in words.
	P int `json:"p"`
	M int `json:"m"`
	// NsPerOp is the measured wall-clock makespan in nanoseconds
	// (minimum over the suite's repetitions).
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is the unfused time divided by this row's time: > 1 on an
	// rhs row means the fused form won for real.
	Speedup float64 `json:"speedup"`
	// PredCross and MeasCross appear on the algorithm-portfolio rows
	// (see Algos): the block size at which the algorithm first
	// undercuts the butterfly, predicted by the calibrated cost lines
	// and measured on this host; 0 means it never won in range.
	PredCross int `json:"predicted_crossover,omitempty"`
	MeasCross int `json:"measured_crossover,omitempty"`
}

// NativeFusionConfig sizes the wall-clock suite.
type NativeFusionConfig struct {
	// P is the group size; the Local rules require a power of two.
	P int
	// Ms are the block sizes to sweep. Small blocks are the
	// start-up-dominated regime where fusion should win; large blocks
	// are bandwidth/compute-dominated where it should not.
	Ms []int
	// Reps is the number of repetitions per measurement (minimum taken).
	Reps int
	// Rules restricts the suite to the named rules; nil measures all.
	Rules []string
	// Ts and Tw are the cost-model parameters to record with each row
	// (they do not affect the measurement — the host's real costs
	// apply). Pass calibrated values so the emitted records carry them.
	Ts, Tw float64
	// Transport selects the native machine's transport mode; the zero
	// value is the zero-copy default.
	Transport backend.TransportMode
}

// DefaultNativeFusionConfig sweeps all rules on 8 ranks across four block
// sizes spanning both regimes.
func DefaultNativeFusionConfig() NativeFusionConfig {
	return NativeFusionConfig{P: 8, Ms: []int{1, 16, 256, 4096}, Reps: 7}
}

// NativeFusion measures every optimization rule's left-hand side and
// rewritten right-hand side on the native backend across block sizes —
// the wall-clock analogue of Table 1. The returned records carry the
// measured speedups; pass them to WriteBenchJSON to persist the perf
// trajectory.
func NativeFusion(cfg NativeFusionConfig) ([]NativeBenchRecord, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("exper: native suite needs p ≥ 1, got %d", cfg.P)
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	run := NativeRunner(cfg.Reps, cfg.Transport)
	var out []NativeBenchRecord
	for _, pat := range Patterns() {
		if cfg.Rules != nil && !slices.Contains(cfg.Rules, pat.Rule) {
			continue
		}
		r, rhs, err := pat.Rewrite(cfg.P)
		if r.Class == "Local" && cfg.P&(cfg.P-1) != 0 {
			// The Local rules rewrite to f^(log p) and need a
			// power-of-two machine; skip rather than measure a rewrite
			// that does not apply.
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, m := range cfg.Ms {
			mach := core.Machine{P: cfg.P, M: m}
			in := mpbackend.SeededInputs(11, cfg.P, m)
			// Warm up once so first-run allocation noise stays out of
			// both measurements.
			run(pat.LHS, mach, in)
			lhsNs := run(pat.LHS, mach, in)
			rhsNs := run(rhs, mach, in)
			params := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, M: m, P: cfg.P}
			out = append(out,
				NativeBenchRecord{
					Backend: "native", Reps: cfg.Reps, Params: params,
					Op: pat.LHS.String(), Rule: pat.Rule, Side: "lhs",
					P: cfg.P, M: m, NsPerOp: lhsNs, Speedup: 1,
				},
				NativeBenchRecord{
					Backend: "native", Reps: cfg.Reps, Params: params,
					Op: rhs.String(), Rule: pat.Rule, Side: "rhs",
					P: cfg.P, M: m, NsPerOp: rhsNs, Speedup: lhsNs / rhsNs,
				})
		}
	}
	return out, nil
}

// WriteBenchJSON writes the records as indented JSON — the BENCH_native
// emitter.
func WriteBenchJSON(path string, recs []NativeBenchRecord) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatNativeFusion renders the records as an aligned text table, fused
// and unfused side by side.
func FormatNativeFusion(recs []NativeBenchRecord) string {
	out := fmt.Sprintf("%-14s %6s %7s %14s %14s %8s\n", "Rule", "p", "m", "lhs ns", "rhs ns", "speedup")
	byKey := map[string]*NativeBenchRecord{}
	for i := range recs {
		r := &recs[i]
		if r.Side == "lhs" {
			byKey[fmt.Sprintf("%s/%d/%d", r.Rule, r.P, r.M)] = r
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.Side != "rhs" {
			continue
		}
		lhs := byKey[fmt.Sprintf("%s/%d/%d", r.Rule, r.P, r.M)]
		if lhs == nil {
			continue
		}
		out += fmt.Sprintf("%-14s %6d %7d %14.0f %14.0f %7.2fx\n",
			r.Rule, r.P, r.M, lhs.NsPerOp, r.NsPerOp, r.Speedup)
	}
	return out
}
