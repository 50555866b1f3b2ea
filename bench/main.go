// Command bench is the repository benchmark: four closed-loop workloads
// measured end to end with tracing off, and — in a separate traced pass —
// every layer measured by calling its public functions from here. See
// README.md for the metric and workload definitions and BENCHMARK.json for
// the contract the driver checks.
//
//	go run -C bench . --workload fold --seed 1 --seconds 15 --trace 0
//	go run -C bench . --workload serve --trace 1     # per-layer metrics + bench/out/trace.json
//	go run -C bench .                                # all four workloads, one child process each
//	go run -C bench . -selfcheck 10                  # is the benchmark steady enough to gate on?
//	go run -C bench . -update-golden                 # regenerate golden.json on the paper's schedule
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

// metricDef names one metric of the contract. BENCHMARK.json lists the same
// names and units; bench_test.go holds the two together.
type metricDef struct {
	name, unit string
	lowerWins  bool
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, the same three for every
// workload. The host is a shared VM whose interference only ever adds time,
// so latency and throughput are read at the quiet end of their
// distributions — the fastest op, the fastest round (see README.md, "Why
// not the median"); the median and the tail are reported next to them as
// diagnostics.
var endToEnd = []metricDef{
	{"op_ms_min", "ms", true, 0.25},
	{"ops_per_s", "ops/s", false, 0.25},
	{"setup_s", "s", true, 0.25},
}

// perLayer lists every per-layer metric in report order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "maxplus.accumulate_l1_gflops", unit: "GFLOPS"},
		{name: "maxplus.accumulate8_l1_gflops", unit: "GFLOPS"},
		{name: "maxplus.accumulate_l2_gflops", unit: "GFLOPS"},
		{name: "maxplus.gather_l1_gflops", unit: "GFLOPS"},
		{name: "semiring.lse_accum_ns_per_elem", unit: "ns", lowerWins: true},
		{name: "semiring.maxplus_accum_ns_per_elem", unit: "ns", lowerWins: true},
		{name: "semiring.lse_over_maxplus", unit: "ratio", lowerWins: true},
		{name: "fill.solve_ms", unit: "ms", lowerWins: true},
		{name: "fill.r0_ms", unit: "ms", lowerWins: true},
		{name: "fill.accumulate_ms", unit: "ms", lowerWins: true},
		{name: "fill.finalize_ms", unit: "ms", lowerWins: true},
		{name: "fill.traceback_ms", unit: "ms", lowerWins: true},
		{name: "fill.gflops", unit: "GFLOPS"},
		{name: "fill.roof_frac", unit: "ratio"},
		{name: "fill.partition_solve_ms", unit: "ms", lowerWins: true},
		{name: "fill.partition_over_maxplus", unit: "ratio", lowerWins: true},
		{name: "fill.windowed_ms", unit: "ms", lowerWins: true},
		{name: "fill.ftable_bytes_computed", unit: "bytes", lowerWins: true},
		{name: "engine.speedup_w2", unit: "ratio"},
		{name: "engine.helper_recruit_ratio", unit: "ratio"},
		{name: "pool.allocs_per_op", unit: "count", lowerWins: true},
		{name: "pool.alloc_kb_per_op", unit: "KiB", lowerWins: true},
		{name: "pool.hit_ratio", unit: "ratio"},
		{name: "pool.heap_peak_mb", unit: "MiB", lowerWins: true},
		{name: "pool.rss_peak_mb", unit: "MiB", lowerWins: true},
		{name: "nussinov.classic_build_ms_n256", unit: "ms", lowerWins: true},
		{name: "nussinov.classic_build_ms_n1024", unit: "ms", lowerWins: true},
		{name: "nussinov.generic_f64_build_ms", unit: "ms", lowerWins: true},
		{name: "nussinov.traceback_ms", unit: "ms", lowerWins: true},
		{name: "fourrussians.build_ms", unit: "ms", lowerWins: true},
		{name: "fourrussians.speedup_vs_classic", unit: "ratio"},
		{name: "pipeline.overhead_ms", unit: "ms", lowerWins: true},
		{name: "pipeline.overhead_frac", unit: "ratio", lowerWins: true},
		{name: "pipeline.batch_item_ms", unit: "ms", lowerWins: true},
		{name: "cache.hit_us", unit: "us", lowerWins: true},
		{name: "cache.key_hash_ns", unit: "ns", lowerWins: true},
		{name: "cache.substrate_hit_ratio", unit: "ratio"},
		{name: "cache.result_hit_ratio", unit: "ratio"},
		{name: "cache.singleflight_shared", unit: "count"},
		{name: "admission.acquire_ns", unit: "ns", lowerWins: true},
		{name: "admission.queue_wait_ms_p50", unit: "ms", lowerWins: true},
		{name: "bpmaxd.hit_ms_p50", unit: "ms", lowerWins: true},
		{name: "bpmaxd.miss_ms_p50", unit: "ms", lowerWins: true},
		{name: "bpmaxd.batch_ms_p50", unit: "ms", lowerWins: true},
		{name: "bpmaxd.http_overhead_ms", unit: "ms", lowerWins: true},
	}
	for _, stage := range serverStages {
		defs = append(defs, metricDef{name: "bpmaxd.stage." + stage + "_us", unit: "us", lowerWins: true})
	}
	return append(defs,
		metricDef{name: "bpmaxd.boot_ms", unit: "ms", lowerWins: true},
		metricDef{name: "bpmaxd.failed_ops", unit: "count", lowerWins: true},
		metricDef{name: "bpmaxd.reqtrace_overhead_frac", unit: "ratio", lowerWins: true},
		metricDef{name: "trace.overhead_frac", unit: "ratio", lowerWins: true},
		metricDef{name: "workload.op_ms_p50", unit: "ms", lowerWins: true},
		metricDef{name: "tail.op_ms", unit: "ms", lowerWins: true},
		metricDef{name: "tail.percentile", unit: "%"},
		metricDef{name: "tail.samples", unit: "count"},
		metricDef{name: "env.loadavg_1m", unit: "count", lowerWins: true},
	)
}()

// value is one reported metric in the form the driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance is what every result file records about the run.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Samples    int     `json:"op_samples"`
	Rounds     int     `json:"rounds"`
	// OpMs and RoundOpsPerS describe the distributions the reported
	// statistics were taken from: op latency at fixed quantiles, and every
	// round's rate in run order.
	OpMs         map[string]float64 `json:"op_ms"`
	RoundOpsPerS []float64          `json:"round_ops_per_s"`
	SetupS       []float64          `json:"setup_s"`
	Result       result             `json:"result"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fold, partition, single or serve (default: all four, one child process each)")
	seed := fs.Int64("seed", goldenSeed, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed section; it ends at the first round boundary after this")
	trace := fs.Int("trace", 0, "1 runs the layer probes and the workload traced for half of -seconds, and reports the per-layer metrics instead of the end-to-end ones")
	selfcheckN := fs.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare their medians against the bounds")
	golden := fs.Bool("update-golden", false, "regenerate golden.json on the paper's sequential schedule")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	switch {
	case *golden:
		if err := updateGolden(filepath.Join(root, "bench")); err != nil {
			return fail(err)
		}
		return 0
	case *selfcheckN > 0:
		return selfcheck(ctx, *selfcheckN, *seconds, stderr)
	case *name == "":
		code := 0
		for _, w := range workloadNames {
			line, err := runChild(ctx, w, *seed, *seconds, *trace, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
			fmt.Fprintln(stdout, line)
		}
		return code
	}

	w, ok := workloadByName(*name, fullSizes)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames))
	}
	env := &environment{seed: *seed, sz: fullSizes, log: stderr}
	if w.name == "serve" || *trace == 1 {
		if env.bpmaxd, err = buildServer(ctx, root); err != nil {
			return fail(err)
		}
	}
	prov := provenance{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Commit: gitCommit(root), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	load := loadavg1m()
	fmt.Fprintf(stderr, "bench: %s seed=%d seconds=%g trace=%d commit=%s %s nproc=%d GOMAXPROCS=%d loadavg=%.2f\n",
		w.name, *seed, *seconds, *trace, prov.Commit, prov.GoVersion, prov.NumCPU, prov.GOMAXPROCS, load)

	var res result
	var m *measurement
	if *trace == 1 {
		res, m, err = tracedRun(ctx, env, w, *seconds, load, filepath.Join(outDir(root), "trace.json"))
	} else {
		res, m, err = plainRun(ctx, env, w, *seconds)
	}
	if err != nil {
		return fail(err)
	}
	prov.Samples, prov.Rounds, prov.Result = len(m.opMs), len(m.walls), res
	prov.OpMs = map[string]float64{"min": slices.Min(m.opMs)}
	for _, p := range []float64{5, 10, 25, 50, 75, 90} {
		prov.OpMs[fmt.Sprintf("p%02.0f", p)] = percentile(m.opMs, p)
	}
	prov.RoundOpsPerS = roundRates(w.roundOps, m.walls)
	prov.SetupS = m.setups
	report(stderr, w.name, res, m)
	if err := writeJSON(filepath.Join(outDir(root), "result-"+w.name+".json"), prov); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupReps is how many times an end-to-end run sets the workload up;
// setup_s is their median.
const setupReps = 5

// plainRun is the end-to-end measurement: tracing off, the recorder nil.
func plainRun(ctx context.Context, env *environment, w workload, seconds float64) (result, *measurement, error) {
	want, err := env.expected(w)
	if err != nil {
		return result{}, nil, err
	}
	m, err := measure(ctx, env, w, want, seconds, setupReps, nil)
	if err != nil {
		return result{}, nil, err
	}
	return result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]value{
			"op_ms_min": {slices.Min(m.opMs), "ms"},
			"ops_per_s": {slices.Max(roundRates(w.roundOps, m.walls)), "ops/s"},
			"setup_s":   {median(m.setups), "s"},
		},
	}, m, nil
}

// tracedRun is the per-layer pass: the layer probes, then the workload with
// every other round traced, and the span file.
func tracedRun(ctx context.Context, env *environment, w workload, seconds, load float64, tracePath string) (result, *measurement, error) {
	rec := newRecorder()
	vals, err := runLayers(ctx, env, rec) // first, so peak RSS is the fold loop's
	if err != nil {
		return result{}, nil, err
	}
	want, err := env.expected(w)
	if err != nil {
		return result{}, nil, err
	}
	m, err := measure(ctx, env, w, want, seconds/2, 1, rec)
	if err != nil {
		return result{}, nil, err
	}
	vals["trace.overhead_frac"] = median(m.opMsTraced)/median(m.opMs) - 1
	vals["workload.op_ms_p50"] = median(m.opMs)
	p := tailPercentile(len(m.opMs))
	vals["tail.op_ms"] = percentile(m.opMs, p)
	vals["tail.percentile"] = p
	vals["tail.samples"] = float64(len(m.opMs))
	vals["env.loadavg_1m"] = load
	if err := rec.writeChrome(tracePath); err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(env.log, "bench: %d spans written to %s (%d dropped)\n", len(rec.spans), tracePath, rec.dropped)
	reportSpans(env.log, rec)

	failed := m.failed + int(vals["bpmaxd.failed_ops"])
	res := result{Correct: failed == 0, Attempted: m.attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			return result{}, nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	return res, m, nil
}

// report prints the human-readable table.
func report(w io.Writer, name string, res result, m *measurement) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tvalue\tunit\n")
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	tw.Flush()
	p := tailPercentile(len(m.opMs))
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed; %d timed ops in %d rounds; diagnostics: p50 = %.4g ms, tail p%g = %.4g ms\n",
		name, res.Attempted, res.Failed, len(m.opMs), len(m.walls), median(m.opMs), p, percentile(m.opMs, p))
}

// reportSpans prints the per-name roll-up of the trace.
func reportSpans(w io.Writer, rec *recorder) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "span\tcount\ttotal ms\tself ms\n")
	for _, s := range rec.summarize() {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", s.name, s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
	tw.Flush()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitCommit reads the checked-out commit straight from .git (go run does
// not stamp one into the binary); a checkout without .git is "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// loadavg1m is the host's one-minute load average, read before the
// workload starts: a run measured on a busy host says so.
func loadavg1m() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return 0
	}
	return float64(si.Loads[0]) / 65536
}
