// Command perfbench is the repository's benchmark: four seeded
// workloads over the served optimizer and over plan execution, with
// end-to-end metrics from an untraced run and the per-layer ledger from
// a separate traced run. See README.md beside this file for why each
// workload exists and what every metric means.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 24 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// self-describing report (host, Go version, commit, seed, sample counts
// and the exact counts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"repro/internal/mpbackend"
)

// metricDef is one reported metric.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload: for the serve workloads an operation is one POST /optimize,
// for the exec workloads one execution of one corpus plan.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_tail_us", "us"},
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
}

// perLayer are the metrics of a traced run, reported by every workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"lang.parse_us", "us"},
		{"rules.canonical_us", "us"},
		{"serve.cache_us", "us"},
		{"serve.json_us", "us"},
		{"serve.handler_us", "us"},
		{"serve.handler_miss_us", "us"},
		{"serve.http_us", "us"},
		{"serve.handler_allocs_hit", "count"},
		{"serve.handler_allocs_miss", "count"},
		{"serve.cache_hit_rate", "ratio"},
		{"serve.cache_evictions", "count"},
		{"serve.engine_runs", "count"},
		{"rules.greedy_us", "us"},
		{"rules.search_us", "us"},
		{"rules.search_nodes", "count"},
		{"rules.verify_us", "us"},
		{"cost.score_us", "us"},
		{"sel.choose_us", "us"},
		{"serve.unexplained_us", "us"},
	}
	for _, name := range stageMetricNames() {
		defs = append(defs, metricDef{name, "us"})
	}
	return append(defs,
		metricDef{"core.unexplained_us", "us"},
		metricDef{"coll.msgs", "count"},
		metricDef{"coll.words", "count"},
		metricDef{"algebra.ops", "count"},
		metricDef{"algebra.add.ns_per_word", "ns"},
		metricDef{"algebra.mul.ns_per_word", "ns"},
		metricDef{"backend.pingpong.m16_us", "us"},
		metricDef{"backend.pingpong.m4096_us", "us"},
		metricDef{"backend.allocs_per_msg", "count"},
		metricDef{"mpbackend.pingpong.m16_us", "us"},
		metricDef{"mpbackend.pingpong.m4096_us", "us"},
		metricDef{"mpbackend.spawn_ms", "ms"},
		metricDef{"rules.fused_speedup.m16", "ratio"},
		metricDef{"rules.fused_speedup.m4096", "ratio"},
		metricDef{"rules.applications", "count"},
		metricDef{"sel.nonbutterfly", "count"},
		metricDef{"cost.stage_rel_err", "ratio"},
		metricDef{"trace.overhead_us", "us"},
		metricDef{"error_rate", "ratio"},
	)
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is the self-describing line printed before the result.
type Report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	ErrorRate  float64            `json:"error_rate"`
	FirstError string             `json:"first_error,omitempty"`
	Samples    map[string]float64 `json:"samples"`
	Counts     map[string]float64 `json:"counts"`
	Windows    []window           `json:"windows,omitempty"`
}

func main() {
	// Rank processes of exec-multiproc re-execute this binary.
	mpbackend.MaybeWorker()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: serve-hot, serve-cold, exec-native, exec-multiproc, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !known(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *workload, workloads)
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer()
	}
	final := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, name := range names {
		o, err := runWorkload(name, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		o.Metrics["error_rate"] = float64(o.Failed) / float64(o.Attempted)
		res := Result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]Metric{}}
		for _, d := range defs {
			v, ok := o.Metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured (%v)\n", name, d.Name, v)
				return 1
			}
			res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
		}
		rep := Report{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), ErrorRate: o.Metrics["error_rate"], Samples: o.Samples, Counts: o.Counts,
			Windows: o.Windows,
		}
		if o.FirstErr != nil {
			rep.FirstError = o.FirstErr.Error()
		}
		printTable(name, defs, res)
		if len(names) == 1 {
			printJSON(map[string]Report{"report": rep})
			printJSON(res)
			return 0
		}
		printJSON(map[string]Report{"report": rep})
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[name+"/"+k] = v
		}
	}
	printJSON(final)
	return 0
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// commit is the source revision the launcher found, or "unknown" when
// the benchmark runs outside a git checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// printTable prints one human-readable line per metric.
func printTable(workload string, defs []metricDef, res Result) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-16s %-30s %14.4f %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-16s %-30s %14.6f ratio (%d failed of %d)\n", workload, "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed here is plain data
	}
	fmt.Println(string(b))
}
