// Command bpmaxload drives a running bpmaxd with synthetic or recorded
// workloads and reports what the server did under them: latency quantiles,
// throughput, shed rate, cache hit rate.
//
// It is an open-loop replayer: requests fire at their trace timestamps
// whether or not earlier ones have completed, so an overloaded server shows
// up as shed (429) and tail latency rather than as a politely slowed
// client. Scheduling lag is tracked and reported so a client-side
// bottleneck is distinguishable from a server-side one.
//
// Modes:
//
//	bpmaxload -addr HOST:PORT -mixes poisson/uniform,bursty/uniform   synthesize and replay
//	bpmaxload -addr HOST:PORT -trace trace.jsonl                      replay a recorded trace
//	bpmaxload -record trace.jsonl -mixes poisson/uniform              write the trace, no server
//
// Each mix is ARRIVAL/LENGTHS, with arrivals poisson|bursty and lengths
// uniform|heavytail|screen (see internal/workload). The -json artifact
// carries run provenance and every mix's full-precision report. With
// -check, the exit status asserts server health: no 5xx, no transport
// errors, client and server ledgers agree, shed rate within -max-shed.
//
// When the server traces requests (bpmaxd's default), every response's
// Server-Timing header is parsed into a per-stage breakdown; the report
// then carries per-stage p50/p95/p99 and names the stage dominating the
// slow tail ("p99 dominated by queue: 62%"). -slowest-trace FILE fetches
// /debug/requests afterwards and writes the server's slowest requests as
// Chrome trace-event JSON. Failed requests are logged (-log-format
// text|json) with the server's X-Request-ID for cross-log correlation.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/bpmax-go/bpmax"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
	"github.com/bpmax-go/bpmax/internal/workload"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpmaxload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bpmaxload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "bpmaxd address (host:port)")
	trace := fs.String("trace", "", "replay this JSONL trace instead of synthesizing")
	record := fs.String("record", "", "write the synthesized trace to this file and exit (no server needed)")
	mixes := fs.String("mixes", "poisson/uniform", "comma-separated ARRIVAL/LENGTHS scenarios to synthesize")
	rate := fs.Float64("rate", 20, "mean arrival rate in requests/second")
	n := fs.Int("n", 200, "requests per mix")
	seed := fs.Int64("seed", 1, "synthesis seed (same seed, same trace)")
	minLen := fs.Int("min-len", 8, "shortest synthesized strand")
	maxLen := fs.Int("max-len", 32, "longest synthesized strand")
	pool := fs.Int("pool", 8, "distinct strand pairs to draw from (>0 exercises the cache)")
	scanEvery := fs.Int("scan-every", 0, "make every Nth request a windowed scan (0 = folds only)")
	window := fs.Int("window", 16, "scan window span for synthesized scans")
	partitionEvery := fs.Int("partition-every", 0, "make every Nth fold a partition (BPPart) request (0 = max-plus only)")
	kt := fs.Float64("kt", 0, "kT stamped on synthesized partition requests (0 = server default)")
	timeoutMs := fs.Int64("timeout-ms", 0, "per-request timeout_ms stamped on synthesized requests (0 = none)")
	label := fs.String("label", "", "report label override (default: mix name or trace filename)")
	jsonOut := fs.String("json", "", "write the run's artifact (provenance + per-mix reports) to this file")
	check := fs.Bool("check", false, "exit nonzero unless the run was healthy (no 5xx/transport errors, ledgers reconcile, shed within -max-shed)")
	maxShed := fs.Float64("max-shed", 1.0, "largest acceptable shed fraction under -check")
	slowestTrace := fs.String("slowest-trace", "", "after the run, fetch /debug/requests and write the server's slowest traces as Chrome trace-event JSON to this file")
	logFormat := fs.String("log-format", "text", "structured log encoding on stderr: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	// Build the (label, requests) list to run.
	type job struct {
		label string
		reqs  []workload.Request
	}
	var jobs []job
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		reqs, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		lbl := *label
		if lbl == "" {
			lbl = strings.TrimSuffix(filepath.Base(*trace), filepath.Ext(*trace))
		}
		jobs = append(jobs, job{lbl, reqs})
	} else {
		for _, mix := range strings.Split(*mixes, ",") {
			mix = strings.TrimSpace(mix)
			if mix == "" {
				continue
			}
			arrivalName, lengthsName, ok := strings.Cut(mix, "/")
			if !ok {
				lengthsName = "uniform"
			}
			arrival, err := workload.NamedArrival(arrivalName, *rate)
			if err != nil {
				return fmt.Errorf("mix %q: %w", mix, err)
			}
			lengths, err := workload.NamedLengths(lengthsName, *minLen, *maxLen)
			if err != nil {
				return fmt.Errorf("mix %q: %w", mix, err)
			}
			reqs := workload.Synthesize(workload.SynthConfig{
				Arrival:        arrival,
				Lengths:        lengths,
				Count:          *n,
				Seed:           *seed,
				Pool:           *pool,
				ScanEvery:      *scanEvery,
				Window:         *window,
				PartitionEvery: *partitionEvery,
				KT:             *kt,
				TimeoutMs:      *timeoutMs,
			})
			lbl := mix
			if *label != "" {
				lbl = *label
			}
			jobs = append(jobs, job{lbl, reqs})
		}
	}
	if len(jobs) == 0 {
		return errors.New("nothing to run: no trace and no mixes")
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		for _, j := range jobs {
			fmt.Fprintf(f, "# bpmaxload trace: %s (%d requests)\n", j.label, len(j.reqs))
			if err := workload.WriteTrace(f, j.reqs); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d mix(es) to %s\n", len(jobs), *record)
		return nil
	}

	base := "http://" + *addr
	client := &http.Client{}
	artifact := workload.NewArtifact()
	var unhealthy []string
	for _, j := range jobs {
		before, err := fetchSnapshot(ctx, client, base)
		if err != nil {
			return fmt.Errorf("%s: /metrics before run: %w", j.label, err)
		}
		col := &workload.Collector{}
		wall, err := replay(ctx, client, base, j.reqs, col, logger)
		if err != nil {
			return fmt.Errorf("%s: %w", j.label, err)
		}
		report := col.Report(j.label, wall)
		after, err := fetchSnapshot(ctx, client, base)
		if err != nil {
			return fmt.Errorf("%s: /metrics after run: %w", j.label, err)
		}
		if hr, ok := cacheHitRate(before, after); ok {
			report.CacheHitRate = hr
		}
		artifact.Reports[report.Label] = report
		printReport(stdout, report)
		if *check {
			unhealthy = append(unhealthy, audit(report, before, after, *maxShed)...)
		}
	}

	if *slowestTrace != "" {
		if err := fetchSlowest(ctx, client, base, *slowestTrace); err != nil {
			return fmt.Errorf("slowest-trace: %w", err)
		}
		fmt.Fprintf(stdout, "slowest traces: %s\n", *slowestTrace)
	}

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "artifact: %s\n", *jsonOut)
	}
	if len(unhealthy) > 0 {
		return fmt.Errorf("check failed:\n  %s", strings.Join(unhealthy, "\n  "))
	}
	return nil
}

// replay fires reqs open-loop at their trace timestamps against base and
// feeds every outcome to col. It returns the run's wall time.
func replay(ctx context.Context, client *http.Client, base string, reqs []workload.Request, col *workload.Collector, logger *slog.Logger) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reqs {
		rq := reqs[i]
		due := start.Add(time.Duration(rq.AtMs * float64(time.Millisecond)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return time.Since(start), ctx.Err()
			}
		}
		lag := time.Since(due) // >0 when the client fell behind schedule
		if lag < 0 {
			lag = 0
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, latency, requestID, stages := fire(ctx, client, base, rq)
			col.AddTimed(status, latency, lag, stages)
			// Failures are logged with the server's request ID so the
			// client-side record joins to the server's access log and
			// /debug/requests entry.
			if status == 0 || status >= 500 {
				logger.Warn("request failed",
					"name", rq.Name, "status", status,
					"request_id", requestID,
					"dur_ms", float64(latency)/1e6)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), nil
}

// fire sends one trace request and returns its HTTP status (0 on a
// transport failure), observed latency, the server-assigned X-Request-ID,
// and the stage breakdown parsed from the Server-Timing header (nil when
// the server runs untraced).
func fire(ctx context.Context, client *http.Client, base string, rq workload.Request) (int, time.Duration, string, map[string]time.Duration) {
	path := "/v1/fold"
	body := map[string]any{"seq1": rq.Seq1, "seq2": rq.Seq2}
	if rq.Op == workload.OpScan {
		path = "/v1/scan"
		body["w1"], body["w2"] = rq.W1, rq.W2
	}
	if rq.Algebra != "" {
		body["algebra"] = rq.Algebra
	}
	if rq.KT != 0 {
		body["kt"] = rq.KT
	}
	if rq.Name != "" {
		body["name"] = rq.Name
	}
	if rq.TimeoutMs > 0 {
		body["timeout_ms"] = rq.TimeoutMs
	}
	blob, _ := json.Marshal(body)
	begin := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(blob))
	if err != nil {
		return 0, time.Since(begin), "", nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, time.Since(begin), "", nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(begin),
		resp.Header.Get("X-Request-ID"),
		workload.ParseServerTiming(resp.Header.Get("Server-Timing"))
}

// fetchSlowest pulls the server's /debug/requests ring and writes its
// slowest traces as a Chrome trace-event file (loadable in chrome://tracing
// or Perfetto), slowest first.
func fetchSlowest(ctx context.Context, client *http.Client, base, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/requests", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/requests: status %d (is the server running -trace-requests=false?)", resp.StatusCode)
	}
	var ring itrace.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		return err
	}
	if len(ring.Slowest) == 0 {
		return errors.New("/debug/requests reported no traces")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := itrace.WriteChrome(f, ring.Slowest); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fetchSnapshot pulls the server's /metrics document.
func fetchSnapshot(ctx context.Context, client *http.Client, base string) (*bpmax.MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var snap bpmax.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// cacheHitRate is the server-side hit fraction across both cache layers
// over the interval between the two snapshots.
func cacheHitRate(before, after *bpmax.MetricsSnapshot) (float64, bool) {
	if before.Cache == nil || after.Cache == nil {
		return 0, false
	}
	hits := (after.Cache.SubstrateHits - before.Cache.SubstrateHits) +
		(after.Cache.ResultHits - before.Cache.ResultHits)
	misses := (after.Cache.SubstrateMisses - before.Cache.SubstrateMisses) +
		(after.Cache.ResultMisses - before.Cache.ResultMisses)
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// audit cross-checks the client's ledger against the server's for one run
// and returns the discrepancies, if any.
func audit(r workload.Report, before, after *bpmax.MetricsSnapshot, maxShed float64) []string {
	var bad []string
	if r.ServerErrs > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d server errors (5xx)", r.Label, r.ServerErrs))
	}
	if r.NetErrs > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d transport errors", r.Label, r.NetErrs))
	}
	if r.ClientErrs > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d client errors (replayer sent requests the server rejected)", r.Label, r.ClientErrs))
	}
	if r.ShedRate > maxShed {
		bad = append(bad, fmt.Sprintf("%s: shed rate %.3f exceeds %.3f", r.Label, r.ShedRate, maxShed))
	}
	if before.Server == nil || after.Server == nil {
		bad = append(bad, fmt.Sprintf("%s: server did not report request accounting", r.Label))
		return bad
	}
	if got, want := after.Server.OK-before.Server.OK, r.OK; got != want {
		bad = append(bad, fmt.Sprintf("%s: server counted %d ok, client saw %d", r.Label, got, want))
	}
	if got, want := after.Server.Shed-before.Server.Shed, r.Shed; got != want {
		bad = append(bad, fmt.Sprintf("%s: server counted %d shed, client saw %d", r.Label, got, want))
	}
	return bad
}

// printReport renders one run's summary line for humans.
func printReport(w io.Writer, r workload.Report) {
	fmt.Fprintf(w, "%-24s %5d req  ok %-5d shed %-5d err %-3d  p50 %-9v p95 %-9v p99 %-9v  %6.1f rps  shed %.3f",
		r.Label, r.Total, r.OK, r.Shed, r.ClientErrs+r.ServerErrs+r.NetErrs,
		time.Duration(r.P50Nanos), time.Duration(r.P95Nanos), time.Duration(r.P99Nanos),
		r.Throughput, r.ShedRate)
	if r.CacheHitRate >= 0 {
		fmt.Fprintf(w, "  cache %.2f", r.CacheHitRate)
	}
	fmt.Fprintf(w, "  lag %v\n", time.Duration(r.MaxLagNanos))
	if len(r.Stages) == 0 {
		return
	}
	fmt.Fprintf(w, "%-24s stage attribution (%d/%d sampled, server covers %.0f%% of e2e):",
		"", r.StagedRequests, r.OK, r.ServerCoverage*100)
	for _, s := range r.Stages {
		fmt.Fprintf(w, "  %s p99 %v", s.Stage, time.Duration(s.P99Nanos))
	}
	fmt.Fprintln(w)
	if r.TailDominant != "" {
		fmt.Fprintf(w, "%-24s p99 dominated by %s\n", "", r.TailDominant)
	}
}
