package calib

import (
	"fmt"
	"runtime"

	"repro/internal/mpbackend"
)

// This file is the multi-process substrate of the calibration: the same
// probe plan and kernels as Measure — ping-pong, compute, and the
// butterfly collectives — run with the ranks as separate OS processes
// over Unix sockets (package mpbackend). On the in-process backends a
// send hands over a reference, so the fitted per-word cost TwNs is
// indistinguishable from zero and the bandwidth-oriented algorithms never
// win; across process boundaries every message is serialized through
// the kernel, tw > 0 becomes measurable, and the crossovers of the §4.1
// model appear for real. The fitted section lands in the calibration
// report under "multiproc" — see CALIB_native.json.
//
// Any binary calling into this file must invoke mpbackend.MaybeWorker()
// first thing in main (or TestMain): the probes re-execute the running
// binary to spawn ranks.

// MPSection is the multi-process part of the calibration report: its own
// fit, raw samples, and portfolio-crossover validation, measured entirely
// across process boundaries.
type MPSection struct {
	// Workers is the host parallelism the probe coefficients assumed
	// (ranks beyond it serialize — see Coef).
	Workers int `json:"workers"`
	// Reps and Rounds document the repetition discipline.
	Reps   int `json:"reps"`
	Rounds int `json:"rounds"`
	// Fit is the fitted parameter set of this transport.
	Fit Fit `json:"fit"`
	// Samples are the raw multi-process probe observations.
	Samples []Sample `json:"samples"`
	// Algos is the portfolio-crossover validation on this transport.
	Algos []AlgoValidation `json:"algos,omitempty"`
}

// mpProbe times a sample as an mpbackend "probe" job: the minimum over
// reps barrier-synchronized repetitions of the max-over-ranks makespan,
// after one discarded warm-up.
func mpProbe(s Sample, reps int) (float64, error) {
	res, err := mpbackend.Run("probe", s.P, mpbackend.ProbeParams{
		Probe: s.Probe, M: s.M, Rounds: s.Rounds, Reps: reps,
	}, mpbackend.Options{})
	if err != nil {
		return 0, fmt.Errorf("calib: multiproc %s probe (p=%d m=%d): %w", s.Probe, s.P, s.M, err)
	}
	return mpbackend.MinMakespan(res)
}

// RunMP performs the multi-process calibration pipeline — measure, fit,
// validate the portfolio crossovers — and assembles the report section.
func RunMP(cfg Config) (*MPSection, error) {
	samples, err := measure(cfg, runtime.NumCPU(), mpProbe)
	if err != nil {
		return nil, err
	}
	fit, err := FitSamples(samples)
	if err != nil {
		return nil, err
	}
	algos, err := ValidateAlgosMP(fit, cfg)
	if err != nil {
		return nil, err
	}
	return &MPSection{
		Workers: runtime.NumCPU(),
		Reps:    cfg.Reps,
		Rounds:  cfg.Rounds,
		Fit:     fit,
		Samples: samples,
		Algos:   algos,
	}, nil
}
