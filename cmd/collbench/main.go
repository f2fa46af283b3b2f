// Command collbench regenerates the paper's evaluation artifacts: Table 1
// (predicted, optionally measured), the BS-Comcast experiments of Figures
// 7 and 8, the measured rule crossovers, and the §5 polynomial-evaluation
// case study.
//
// Usage:
//
//	collbench -table1 [-measured]     reproduce Table 1
//	collbench -fig7 [-csv]            reproduce Figure 7
//	collbench -fig8 [-csv]            reproduce Figure 8
//	collbench -fig2                   reproduce Figure 2
//	collbench -fig3                   reproduce Figure 3 (timelines)
//	collbench -crossover              measured vs predicted crossovers
//	collbench -crossfig [-csv]        plot the SS2-Scan crossover (§4.2)
//	collbench -scaling                strong scaling of SR2-Reduction's saving
//	collbench -apps                   strong scaling of the collective-only apps
//	collbench -polyeval               reproduce the §5 case study
//	collbench -everything             all of the above
//	collbench -report                 the full Markdown report (EXPERIMENTS.md)
//	collbench -algos                  algorithm portfolio vs butterfly (native)
//	collbench -benchjson FILE         wall-clock fusion + algorithm suites → JSON
//	collbench -calibrate              fit ts/tw/tc from native microbenchmarks
//
// Measurements default to the virtual machine, whose deterministic
// makespans follow the §4.1 cost model; -backend native re-runs them on
// the native goroutine backend, reporting real wall-clock nanoseconds
// (minimum over -reps repetitions), and -backend multiproc runs the
// calibration and algorithm sweeps (-calibrate, -algos, -benchjson) with
// the ranks as separate OS processes over Unix sockets — the transport
// where per-word cost is real. -transport picks the native payload
// discipline: zerocopy (the default reference hand-off) or copy
// (payloads deep-copied at the send site; see docs/PERF.md). Machine
// parameters default to a Parsytec-like start-up-dominated network
// (ts = 5000, tw = 1) and can be overridden with -ts/-tw/-p/-m; the
// native backend ignores ts/tw — the host's real start-up and bandwidth
// apply.
//
// -calibrate measures this machine's actual parameters: it runs the
// ping-pong/compute/collective probe family on the native backend, fits
// the a·ts + b·m·tw + c·m model by weighted least squares, validates
// every rule's predicted break-even against measurement, validates the
// collective-algorithm portfolio's predicted crossovers the same way
// (see docs/ALGORITHMS.md), and (with -params-file FILE) writes the
// machine-readable report — see the committed CALIB_native.json.
//
// -algos runs the portfolio validation standalone: every algorithm of
// docs/ALGORITHMS.md head-to-head against the §4.1 butterfly on the
// native backend, reporting measured speedups and the predicted and
// measured crossover block sizes. -quick shrinks the sweep to a smoke run.
// In any other mode, -params-file FILE loads a previous report and uses
// its calibrated ts/tw in place of the -ts/-tw defaults.
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof profiles of
// whatever mode runs, for inspection with `go tool pprof`; see
// docs/PERF.md for the profiling workflow.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/machine"
	"repro/internal/mpbackend"
	"repro/internal/prof"
)

func main() {
	// Must run before anything else: multi-process measurements re-execute
	// this binary to spawn ranks.
	mpbackend.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; factored out of
// main so the command is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("collbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ts := fs.Float64("ts", 5000, "message start-up time")
	tw := fs.Float64("tw", 1, "per-word transfer time")
	p := fs.Int("p", 64, "number of processors")
	m := fs.Int("m", 1024, "block size in words")
	table1 := fs.Bool("table1", false, "reproduce Table 1")
	measured := fs.Bool("measured", false, "also measure Table 1 on the virtual machine")
	fig2 := fs.Bool("fig2", false, "reproduce Figure 2")
	fig3 := fs.Bool("fig3", false, "reproduce Figure 3 (timelines)")
	fig7 := fs.Bool("fig7", false, "reproduce Figure 7")
	fig8 := fs.Bool("fig8", false, "reproduce Figure 8")
	crossover := fs.Bool("crossover", false, "measured vs predicted crossovers")
	crossfig := fs.Bool("crossfig", false, "plot the SS2-Scan before/after crossover (§4.2)")
	scaling := fs.Bool("scaling", false, "strong scaling of SR2-Reduction's saving")
	appsFlag := fs.Bool("apps", false, "strong scaling of the collective-only applications")
	polyeval := fs.Bool("polyeval", false, "reproduce the §5 case study")
	everything := fs.Bool("everything", false, "run every experiment")
	csv := fs.Bool("csv", false, "emit figures as CSV instead of ASCII plots")
	report := fs.Bool("report", false, "emit the full Markdown experiment report (EXPERIMENTS.md body)")
	backendFlag := fs.String("backend", "virtual", "measurement backend: virtual (cost-model time), native (wall-clock goroutines) or multiproc (wall-clock OS processes; -calibrate, -algos and -benchjson)")
	transportFlag := fs.String("transport", "zerocopy", "native transport: zerocopy (reference hand-off) or copy (payloads deep-copied at the send site)")
	reps := fs.Int("reps", 5, "repetitions per native measurement (minimum taken)")
	benchjson := fs.String("benchjson", "", "run the native wall-clock fusion + algorithm suites and write records to this JSON file")
	algosFlag := fs.Bool("algos", false, "measure the collective-algorithm portfolio against the butterfly (native wall-clock)")
	calibrate := fs.Bool("calibrate", false, "fit ts/tw from native microbenchmarks and validate every rule's break-even")
	quick := fs.Bool("quick", false, "with -calibrate: minimal sweep (smoke run for CI)")
	paramsFile := fs.String("params-file", "", "with -calibrate: write the calibration report here; otherwise: load calibrated ts/tw from this report")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	transport, err := backend.ParseTransport(*transportFlag)
	if err != nil {
		fmt.Fprintf(stderr, "collbench: %v\n", err)
		return 2
	}
	if err := validate(*p, *m, *reps, *backendFlag, *table1 && *measured); err != nil {
		fmt.Fprintf(stderr, "collbench: %v\n", err)
		return 2
	}
	multiproc := *backendFlag == "multiproc"
	if multiproc && transport == backend.TransportCopy {
		fmt.Fprintln(stderr, "collbench: -transport copy applies to the native backend; a process boundary always copies")
		return 2
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "collbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
		}
	}()

	if *calibrate {
		cfg := calib.DefaultConfig()
		if *quick {
			cfg = calib.QuickConfig()
		}
		cfg.Reps = *reps
		rep, err := calib.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 1
		}
		if multiproc {
			mp, err := calib.RunMP(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "collbench: %v\n", err)
				return 1
			}
			rep.MultiProc = mp
		}
		fmt.Fprint(stdout, calib.FormatReport(rep))
		if *paramsFile != "" {
			if err := calib.WriteReport(*paramsFile, rep); err != nil {
				fmt.Fprintf(stderr, "collbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote calibration report to %s\n", *paramsFile)
		}
		return 0
	}
	// mpTs/mpTw are the multi-process transport's calibrated parameters,
	// used for the predicted side of multi-process sweeps; they default to
	// the -ts/-tw values and are overridden by a loaded report's multiproc
	// section.
	mpTs, mpTw := *ts, *tw
	if *paramsFile != "" {
		rep, err := calib.ReadReport(*paramsFile)
		if err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 1
		}
		*ts, *tw = rep.Fit.Ts, rep.Fit.Tw
		mpTs, mpTw = *ts, *tw
		fmt.Fprintf(stdout, "using calibrated parameters from %s: ts=%.1f tw=%.4f\n", *paramsFile, *ts, *tw)
		if mp := rep.MultiProc; mp != nil {
			mpTs, mpTw = mp.Fit.Ts, mp.Fit.Tw
			fmt.Fprintf(stdout, "multiproc section: ts=%.1f tw=%.4f\n", mpTs, mpTw)
		}
	}
	native := *backendFlag == "native"
	run := exper.RunVirtual
	unit := ""
	if native {
		run = exper.NativeRunner(*reps, transport)
		unit = " [native wall-clock, ns]"
	}
	// virtualOnly flags modes whose output is inherently cost-model based.
	virtualOnly := func(mode string) {
		if native {
			fmt.Fprintf(stderr, "collbench: %s runs on the virtual machine regardless of -backend\n", mode)
		}
	}

	if *algosFlag {
		cfg := exper.DefaultNativeAlgoConfig()
		cfg.Reps = *reps
		cfg.Ts, cfg.Tw = *ts, *tw
		name, kind, measurer := "native", "native", exper.NativeAlgoMeasurer(cfg.Reps, transport)
		if multiproc {
			name, kind, measurer = "multiproc", "multi-process", exper.MultiProcAlgoMeasurer(cfg.Reps)
			cfg.Ts, cfg.Tw = mpTs, mpTw
		}
		recs, err := exper.Algos(cfg, name, measurer)
		if err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "== Collective-algorithm portfolio vs butterfly (%s wall-clock, reps=%d) ==\n", kind, cfg.Reps)
		fmt.Fprint(stdout, exper.FormatNativeFusion(recs))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, exper.FormatAlgoCrossovers(recs))
		return 0
	}

	if *benchjson != "" {
		cfg := exper.DefaultNativeFusionConfig()
		cfg.P = *p
		cfg.Reps = *reps
		cfg.Ts, cfg.Tw = *ts, *tw
		cfg.Transport = transport
		recs, err := exper.NativeFusion(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 1
		}
		acfg := exper.DefaultNativeAlgoConfig()
		acfg.Reps = *reps
		acfg.Ts, acfg.Tw = *ts, *tw
		arecs, err := exper.Algos(acfg, "native", exper.NativeAlgoMeasurer(acfg.Reps, transport))
		if err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 1
		}
		recs = append(recs, arecs...)
		if multiproc {
			// The multi-process rows ride along after the native suites:
			// same record shape, Backend "multiproc", real tw. Their
			// predicted crossovers use the multi-process calibration.
			mcfg := acfg
			mcfg.Ts, mcfg.Tw = mpTs, mpTw
			mrecs, err := exper.Algos(mcfg, "multiproc", exper.MultiProcAlgoMeasurer(mcfg.Reps))
			if err != nil {
				fmt.Fprintf(stderr, "collbench: %v\n", err)
				return 1
			}
			recs = append(recs, mrecs...)
		}
		if err := exper.WriteBenchJSON(*benchjson, recs); err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "== Native wall-clock fusion suite (p=%d, reps=%d) ==\n", cfg.P, cfg.Reps)
		fmt.Fprint(stdout, exper.FormatNativeFusion(recs))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, exper.FormatAlgoCrossovers(arecs))
		fmt.Fprintf(stdout, "wrote %d records to %s\n", len(recs), *benchjson)
		return 0
	}

	if multiproc {
		fmt.Fprintln(stderr, "collbench: -backend multiproc supports -calibrate, -algos and -benchjson; other modes run on the virtual or native backend")
		return 2
	}
	if *report {
		virtualOnly("-report")
		fmt.Fprint(stdout, exper.Report(exper.ReportConfig{Ts: *ts, Tw: *tw, P: min(*p, 32), M: 16}))
		return 0
	}

	if *everything {
		*table1, *measured, *fig2, *fig3, *fig7, *fig8, *crossover, *polyeval =
			true, true, true, true, true, true, true, true
		if err := validate(*p, *m, *reps, *backendFlag, *measured); err != nil {
			fmt.Fprintf(stderr, "collbench: %v\n", err)
			return 2
		}
	}
	if !*table1 && !*fig2 && !*fig3 && !*fig7 && !*fig8 && !*crossover && !*crossfig && !*scaling && !*appsFlag && !*polyeval && !*report {
		fmt.Fprintln(stderr, "collbench: select an experiment (or -everything)")
		fs.PrintDefaults()
		return 2
	}
	params := machine.Params{Ts: *ts, Tw: *tw}
	mach := core.Machine{Ts: *ts, Tw: *tw, P: *p, M: *m}

	if *table1 {
		fmt.Fprintf(stdout, "== Table 1 (ts=%g tw=%g p=%d m=%d)%s ==\n", *ts, *tw, *p, *m, unit)
		rows := exper.Table1(mach, *measured, run)
		fmt.Fprint(stdout, exper.FormatTable1(rows, *measured))
		fmt.Fprintln(stdout)
	}
	if *fig2 {
		virtualOnly("-fig2")
		fmt.Fprintln(stdout, "== Figure 2: P1 = P2 on [1 2 3 4] ==")
		p1, p2, mid := exper.Figure2()
		fmt.Fprintf(stdout, "P1 = allreduce(+):                        %v\n", p1)
		fmt.Fprintf(stdout, "P2 intermediate (allreduce(op_new)):      %v\n", mid)
		fmt.Fprintf(stdout, "P2 = map pair; allreduce(op_new); map pi: %v\n", p2)
		fmt.Fprintln(stdout)
	}
	if *fig3 {
		virtualOnly("-fig3")
		fmt.Fprintln(stdout, "== Figure 3: Example before/after SR2-Reduction ==")
		f3mach := core.Machine{Ts: *ts, Tw: *tw, P: min(*p, 8), M: *m}
		before, after, tB, tA := exper.Figure3(f3mach, 64)
		fmt.Fprint(stdout, before)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, after)
		fmt.Fprintf(stdout, "\ntime saved: %.0f (%.1f%%)\n\n", tB-tA, 100*(tB-tA)/tB)
	}
	if *fig7 {
		fig := exper.Figure7(params, *m, *p, run)
		emit(stdout, fig, *csv)
	}
	if *fig8 {
		fig := exper.Figure8(params, *p, *m/8+1, *m*4, run)
		emit(stdout, fig, *csv)
	}
	if *crossover {
		fmt.Fprintf(stdout, "== Crossovers (largest m where the rule still improves; ts=%g tw=%g p=%d)%s ==\n", *ts, *tw, *p, unit)
		for _, rule := range []string{"SR-Reduction", "SS2-Scan", "SS-Scan"} {
			res := exper.MeasureCrossover(rule, core.Machine{Ts: *ts, Tw: *tw, P: *p}, 1<<15, run)
			fmt.Fprintf(stdout, "  %-14s predicted m = %-6d measured m = %d\n", res.Rule, res.Predicted, res.Measured)
		}
		fmt.Fprintln(stdout)
	}
	if *crossfig {
		tsI := int(*ts)
		ms := []int{tsI / 8, tsI / 4, 3 * tsI / 8, tsI / 2, 5 * tsI / 8, 3 * tsI / 4, tsI}
		fig := exper.CrossoverFigure("SS2-Scan", params, min(*p, 16), ms, run)
		emit(stdout, fig, *csv)
	}
	if *scaling {
		ps := []int{}
		for q := 2; q <= *p; q *= 2 {
			ps = append(ps, q)
		}
		fig := exper.Scaling("SR2-Reduction", params, *m**p, ps, run)
		emit(stdout, fig, *csv)
	}
	if *appsFlag {
		virtualOnly("-apps")
		ps := []int{1, 2, 4, 8, 16, 32}
		for _, app := range exper.AppNames {
			rows := exper.AppSpeedup(app, *ts, *tw, 1<<14, ps)
			fmt.Fprintln(stdout, exper.FormatSpeedup(app, rows))
		}
	}
	if *polyeval {
		virtualOnly("-polyeval")
		fmt.Fprintf(stdout, "== §5 Polynomial evaluation (p=%d, %d points, ts=%g tw=%g) ==\n", *p, *m, *ts, *tw)
		pe := exper.NewPolyEval(1, *p, *m)
		for _, r := range pe.Run(*ts, *tw) {
			status := "ok"
			if !r.Correct {
				status = "WRONG RESULT"
			}
			fmt.Fprintf(stdout, "  %-28s %12.0f  %s\n", r.Name, r.Makespan, status)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// validate rejects flag values that would otherwise panic deep inside an
// experiment, so bad invocations die with a clear message and exit 2.
func validate(p, m, reps int, backend string, measuredTable bool) error {
	if p < 1 {
		return fmt.Errorf("-p must be a positive processor count, got %d", p)
	}
	if m < 1 {
		return fmt.Errorf("-m must be a positive block size, got %d", m)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", reps)
	}
	if backend != "virtual" && backend != "native" && backend != "multiproc" {
		return fmt.Errorf("-backend must be \"virtual\", \"native\" or \"multiproc\", got %q", backend)
	}
	if measuredTable && !coll.IsPow2(p) {
		return fmt.Errorf("-table1 -measured needs a power-of-two -p (the Local rules rewrite to butterfly programs), got %d", p)
	}
	return nil
}

func emit(stdout io.Writer, fig exper.Figure, csv bool) {
	if csv {
		fmt.Fprintf(stdout, "# %s\n%s\n", fig.Title, fig.CSV())
	} else {
		fmt.Fprintln(stdout, fig.Plot(64, 16))
	}
}
