// Command collserve is the optimizer-as-a-service daemon: a long-running
// HTTP/JSON server that accepts collective pipelines in the surface
// syntax, runs the cost-guided rewrite engine over them, and returns the
// optimized program, predicted cost and derivation summary. Plans are
// memoized in a sharded single-flight LRU cache keyed on the canonical
// program + machine parameters, and small compatible requests arriving
// within the fusion window are batched into one optimization over their
// combined block (see docs/SERVING.md).
//
// Serve mode:
//
//	collserve -addr 127.0.0.1:8080 [-params-file CALIB_native.json]
//
// Endpoints: POST /optimize, GET /healthz, GET /metrics. On SIGINT or
// SIGTERM the daemon drains gracefully: the listener stops accepting,
// in-flight requests and open fusion windows finish, final statistics
// are printed, and a watchdog-style goroutine check verifies nothing
// leaked before exit (exit 0 on a clean drain, 1 on a leak).
//
// Flags (serve mode):
//
//	-addr HOST:PORT     listen address (port 0 picks a free port)
//	-ts, -tw, -p, -m    default machine parameters for requests
//	-params-file FILE   calibrated ts/tw from collbench -calibrate
//	-cache-size N       plan-cache capacity (entries)
//	-cache-shards N     plan-cache shards (rounded up to a power of two)
//	-fuse-cycle-ms N    fusion window length
//	-fuse-max-count N   flush a fusion batch at N requests
//	-fuse-max-bytes N   flush a fusion batch at N fused bytes
//	-verify             semantically verify newly computed plans (default true)
//	-drain-timeout N    seconds to wait for in-flight requests on shutdown
//
// Load-generator mode replays randomized requests against a live daemon
// over real sockets and reports throughput, latency percentiles, cache
// hit rate and the fusion-batch distribution (BENCH_serve.json):
//
//	collserve -loadgen -target http://127.0.0.1:8080 -requests 1000000 \
//	          -clients 64 -distinct 500 -fusible 10000 -json BENCH_serve.json
//
// Flags (loadgen mode):
//
//	-target URL         daemon base URL
//	-requests N         total requests across the churn + repeated phases
//	-clients N          concurrent client connections
//	-distinct N         program-pool size of the repeated phase
//	-fusible N          extra fuse-enabled requests (0 skips the phase)
//	-seed N             workload seed
//	-strategy S         optimization strategy sent with every request:
//	                    "greedy" (default) or "search" for the global
//	                    plan search
//	-select             request collective-algorithm auto-selection with
//	                    every request (plans carry per-stage algorithm
//	                    choices under select-qualified cache keys)
//	-json FILE          write the machine-readable report here
//	-min-hit-rate F     fail (exit 1) if the repeated phase's cache hit
//	                    rate is below F
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a slow or stalled client cannot hold a connection
// open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; factored out of
// main so the command is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("collserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		ts         = fs.Float64("ts", 1000, "default message start-up time")
		tw         = fs.Float64("tw", 1, "default per-word transfer time")
		p          = fs.Int("p", 64, "default number of processors")
		m          = fs.Int("m", 64, "default block size in words")
		paramsFile = fs.String("params-file", "", "load calibrated ts/tw from a collbench -calibrate report")
		cacheSize  = fs.Int("cache-size", 4096, "plan-cache capacity in entries")
		shards     = fs.Int("cache-shards", 64, "plan-cache shard count (rounded up to a power of two)")
		cycleMs    = fs.Float64("fuse-cycle-ms", 2, "fusion window length in milliseconds")
		fuseCount  = fs.Int("fuse-max-count", 16, "flush a fusion batch at this many requests")
		fuseBytes  = fs.Int("fuse-max-bytes", 64<<10, "flush a fusion batch at this many fused bytes")
		verify     = fs.Bool("verify", true, "semantically verify newly computed plans")
		drainSecs  = fs.Float64("drain-timeout", 10, "seconds to wait for in-flight requests on shutdown")

		loadgen    = fs.Bool("loadgen", false, "run as load generator against -target instead of serving")
		target     = fs.String("target", "http://127.0.0.1:8080", "loadgen: daemon base URL")
		requests   = fs.Int("requests", 100000, "loadgen: total requests across churn + repeated phases")
		clients    = fs.Int("clients", 32, "loadgen: concurrent client connections")
		distinct   = fs.Int("distinct", 500, "loadgen: program-pool size of the repeated phase")
		fusible    = fs.Int("fusible", 0, "loadgen: extra fuse-enabled requests (0 skips the fusion phase)")
		seed       = fs.Int64("seed", 1, "loadgen: workload seed")
		strategy   = fs.String("strategy", "", `loadgen: optimization strategy per request ("greedy" or "search")`)
		selectAlgo = fs.Bool("select", false, "loadgen: request collective-algorithm auto-selection with every request")
		jsonOut    = fs.String("json", "", "loadgen: write the machine-readable report to this file")
		minHitRate = fs.Float64("min-hit-rate", 0, "loadgen: fail if the repeated phase's hit rate is below this")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "collserve: unexpected arguments %v\n", fs.Args())
		return 2
	}

	if *loadgen {
		if _, err := serve.ParseStrategy(*strategy); err != nil {
			fmt.Fprintf(stderr, "collserve: %v\n", err)
			return 2
		}
		return runLoadgen(serve.LoadConfig{
			Target:   *target,
			Requests: *requests,
			Clients:  *clients,
			Distinct: *distinct,
			Fusible:  *fusible,
			Seed:     *seed,
			P:        *p,
			M:        *m,
			Strategy: *strategy,
			Select:   *selectAlgo,
			Out:      stdout,
		}, *jsonOut, *minHitRate, stdout, stderr)
	}

	// Install the signal handler before taking the goroutine baseline:
	// the signal package's delivery loop goroutine is permanent by
	// design and must not count as a leak.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	baseline := runtime.NumGoroutine()

	calibrated := ""
	if *paramsFile != "" {
		rep, err := calib.ReadReport(*paramsFile)
		if err != nil {
			fmt.Fprintf(stderr, "collserve: %v\n", err)
			return 1
		}
		*ts, *tw = rep.Fit.Ts, rep.Fit.Tw
		calibrated = fmt.Sprintf(" (calibrated from %s)", *paramsFile)
	}
	cfg := serve.Config{
		Machine:      core.Machine{Ts: *ts, Tw: *tw, P: *p, M: *m},
		CacheSize:    *cacheSize,
		CacheShards:  *shards,
		FuseCycle:    time.Duration(*cycleMs * float64(time.Millisecond)),
		FuseMaxCount: *fuseCount,
		FuseMaxBytes: *fuseBytes,
		NoVerify:     !*verify,
	}
	s := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "collserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "collserve: listening on http://%s%s\n", ln.Addr(), calibrated)
	fmt.Fprintf(stdout, "collserve: machine ts=%g tw=%g p=%d m=%d, cache %d entries, fusion window %gms/%d reqs/%d bytes\n",
		*ts, *tw, *p, *m, *cacheSize, *cycleMs, *fuseCount, *fuseBytes)

	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(stderr, "collserve: serve: %v\n", err)
		return 1
	}
	stop()

	// Graceful drain: stop accepting, let in-flight requests and open
	// fusion windows finish, then account for every goroutine.
	fmt.Fprintln(stdout, "collserve: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "collserve: shutdown: %v\n", err)
		return 1
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	s.Drain()

	snap := s.Metrics()
	fmt.Fprintf(stdout, "collserve: served %d requests (%d optimized, %d errors), engine runs %d\n",
		snap.Requests, snap.Optimized, snap.Errors, snap.EngineRuns)
	fmt.Fprintf(stdout, "collserve: cache %d/%d entries, %d hits, %d misses, %d coalesced, %d evictions (hit rate %.1f%%)\n",
		snap.Cache.Size, snap.Cache.Capacity, snap.Cache.Hits, snap.Cache.Misses,
		snap.Cache.Coalesced, snap.Cache.Evictions, 100*snap.Cache.HitRate())
	fmt.Fprintf(stdout, "collserve: fusion %d batches over %d requests (max batch %d)\n",
		snap.Fusion.Batches, snap.Fusion.FusedRequests, snap.Fusion.MaxBatch)

	// Watchdog-style goroutine accounting, as the backend leak tests do:
	// settle, then compare against the pre-listen baseline.
	leaked := -1
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if n := runtime.NumGoroutine(); n <= baseline {
			leaked = 0
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked != 0 {
		n := runtime.NumGoroutine()
		fmt.Fprintf(stderr, "collserve: LEAK: %d goroutines after drain (baseline %d)\n", n, baseline)
		return 1
	}
	fmt.Fprintf(stdout, "collserve: drained cleanly (%d goroutines, baseline %d)\n", runtime.NumGoroutine(), baseline)
	return 0
}

// runLoadgen drives serve.Loadgen and applies the exit-code policy: any
// transport/HTTP errors or a repeated-phase hit rate below -min-hit-rate
// fail the run.
func runLoadgen(cfg serve.LoadConfig, jsonOut string, minHitRate float64, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "collserve loadgen: %d requests, %d clients, %d distinct programs, %d fusible, seed %d -> %s\n",
		cfg.Requests, cfg.Clients, cfg.Distinct, cfg.Fusible, cfg.Seed, cfg.Target)
	rep, err := serve.Loadgen(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "collserve: %v\n", err)
		return 1
	}
	if jsonOut != "" {
		if err := serve.WriteLoadReport(jsonOut, rep); err != nil {
			fmt.Fprintf(stderr, "collserve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote load report to %s\n", jsonOut)
	}
	code := 0
	for _, ph := range rep.Phases {
		if ph.Errors > 0 {
			fmt.Fprintf(stderr, "collserve: phase %s had %d errors\n", ph.Name, ph.Errors)
			code = 1
		}
		if ph.Name == "repeated" && ph.CacheHitRate < minHitRate {
			fmt.Fprintf(stderr, "collserve: repeated-phase hit rate %.1f%% below required %.1f%%\n",
				100*ph.CacheHitRate, 100*minHitRate)
			code = 1
		}
	}
	if len(rep.Fusion.Dist) > 0 {
		fmt.Fprintf(stdout, "fusion batches: %d over %d requests, max batch %d, dist %v\n",
			rep.Fusion.Batches, rep.Fusion.FusedRequests, rep.Fusion.MaxBatch, rep.Fusion.Dist)
	}
	return code
}
