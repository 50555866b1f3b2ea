package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Prometheus text-format exposition, rendered by hand from a Snapshot so
// the server scrapes into standard dashboards without a client library
// dependency. Only the format's stable core is used: `# HELP`/`# TYPE`
// comments, counter/gauge samples, and a histogram with cumulative
// `le`-labeled buckets derived from the power-of-two Histogram.

// promWriter accumulates exposition lines, remembering the first write
// error so the render code stays linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// metric emits one `# HELP` + `# TYPE` header and a single unlabeled
// sample.
func (p *promWriter) metric(name, typ, help string, v any) {
	p.header(name, typ, help)
	p.printf("%s %v\n", name, promValue(v))
}

func (p *promWriter) header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promValue formats sample values: bools become 0/1, floats use the
// shortest round-trip form.
func promValue(v any) string {
	switch x := v.(type) {
	case bool:
		if x {
			return "1"
		}
		return "0"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Optional sections (engine, pool, cache, admission, server, runtime)
// appear only when attached, mirroring the JSON snapshot's omitempty
// behavior.
func WriteProm(w io.Writer, s *Snapshot) error {
	p := &promWriter{w: w}

	p.metric("bpmax_folds_total", "counter", "Fills executed (a fold served from the result cache runs none: see bpmax_cache_result_hits_total).", s.Folds)
	p.metric("bpmax_fold_errors_total", "counter", "Failed folds (cancelled, over budget, panicked, invalid).", s.Errors)
	p.metric("bpmax_folds_degraded_total", "counter", "Folds that degraded (packed or windowed).", s.Degraded)
	p.metric("bpmax_cells_total", "counter", "DP cells computed.", s.Cells)
	p.metric("bpmax_flops_total", "counter", "Analytic max-plus operations executed.", s.FLOPs)
	p.metric("bpmax_fill_nanos_total", "counter", "Cumulative table-fill wall time in nanoseconds.", s.FillNanos)
	p.metric("bpmax_retries_total", "counter", "Retry attempts under WithRetry.", s.Retries)
	p.metric("bpmax_retry_successes_total", "counter", "Folds rescued by a retry.", s.RetrySuccesses)
	p.metric("bpmax_retries_exhausted_total", "counter", "Folds that were retried and still failed.", s.RetriesExhausted)
	p.metric("bpmax_partition_guard_fallbacks_total", "counter", "Scaled partition builds and fills redone in the log domain after their range guard tripped.", s.PartitionFallbacks)
	p.metric("bpmax_table_bytes_high_water", "gauge", "Largest single-fold table footprint seen.", s.TableBytesHighWater)

	if len(s.Phases) > 0 {
		p.header("bpmax_phase_nanos_total", "counter", "Cumulative wall time per schedule phase in nanoseconds.")
		for _, name := range sortedKeys(s.Phases) {
			p.printf("bpmax_phase_nanos_total{phase=%q} %d\n", name, s.Phases[name].Nanos)
		}
		p.header("bpmax_phase_units_total", "counter", "Tasks executed per schedule phase (rows, tiles, triangles).")
		for _, name := range sortedKeys(s.Phases) {
			p.printf("bpmax_phase_units_total{phase=%q} %d\n", name, s.Phases[name].Units)
		}
	}

	writePromHistogram(p, "bpmax_fold_duration_seconds", "Fold fill latency.", s.FoldNanos)

	if c := s.Cache; c != nil {
		p.metric("bpmax_cache_substrate_hits_total", "counter", "Substrate-cache hits.", c.SubstrateHits)
		p.metric("bpmax_cache_substrate_misses_total", "counter", "Substrate-cache misses.", c.SubstrateMisses)
		p.metric("bpmax_cache_result_hits_total", "counter", "Result-cache hits.", c.ResultHits)
		p.metric("bpmax_cache_result_misses_total", "counter", "Result-cache misses.", c.ResultMisses)
		p.metric("bpmax_cache_singleflight_shared_total", "counter", "Requests served by another request's in-flight solve.", c.SingleFlightShared)
		p.metric("bpmax_cache_evictions_total", "counter", "Entries dropped by the LRU policy.", c.Evictions)
		p.metric("bpmax_cache_entries", "gauge", "Current cache entries across both classes.", c.Entries)
		p.metric("bpmax_cache_retained_bytes", "gauge", "Bytes currently pinned by cache entries.", c.RetainedBytes)
		p.metric("bpmax_cache_breaker_opens_total", "counter", "Cache-key circuit-breaker trips.", c.BreakerOpens)
	}

	if a := s.Admission; a != nil {
		p.metric("bpmax_admission_running", "gauge", "Requests currently holding an admission slot.", a.Running)
		p.metric("bpmax_admission_queue_depth", "gauge", "Requests currently waiting in the admission queue.", a.QueueDepth)
		p.metric("bpmax_admission_admitted_total", "counter", "Requests admitted through the gate.", a.Admitted)
		p.metric("bpmax_admission_rejected_total", "counter", "Requests rejected because the queue was full.", a.Rejected)
		p.metric("bpmax_admission_expired_total", "counter", "Requests whose context ended while queued.", a.Expired)
		p.metric("bpmax_admission_wait_nanos_total", "counter", "Total queue wait across admitted requests in nanoseconds.", a.WaitNanosTotal)
	}

	if e := s.Engine; e != nil {
		p.metric("bpmax_engine_width", "gauge", "Engine parallel width.", e.Width)
		p.metric("bpmax_engine_runs_total", "counter", "Parallel loops executed on the engine.", e.Runs)
		p.metric("bpmax_engine_helpers_recruited_total", "counter", "Helper offers accepted by parked workers.", e.HelpersRecruited)
		p.metric("bpmax_engine_panics_total", "counter", "Solver panics recovered inside engine jobs.", e.Panics)
	}

	if pl := s.Pool; pl != nil {
		p.metric("bpmax_pool_hit_rate", "gauge", "Fold-state shell reuse rate.", pl.HitRate())
		p.metric("bpmax_pool_live_buffers", "gauge", "Arena buffers currently owned by callers.", pl.Buffers.Live)
		p.metric("bpmax_pool_retained_bytes", "gauge", "Idle bytes parked in the buffer arena.", pl.Buffers.RetainedBytes)
	}

	if sv := s.Server; sv != nil {
		p.metric("bpmax_server_requests_total", "counter", "Requests routed to serving endpoints.", sv.Requests)
		p.metric("bpmax_server_in_flight", "gauge", "Requests currently being served.", sv.InFlight)
		p.metric("bpmax_server_ok_total", "counter", "2xx responses.", sv.OK)
		p.metric("bpmax_server_bad_request_total", "counter", "4xx responses other than 429.", sv.BadRequest)
		p.metric("bpmax_server_shed_total", "counter", "429 responses (queue full, load shed).", sv.Shed)
		p.metric("bpmax_server_unavailable_total", "counter", "503 responses (draining / closed).", sv.Unavailable)
		p.metric("bpmax_server_timeouts_total", "counter", "504 responses (deadline expired).", sv.Timeouts)
		p.metric("bpmax_server_failed_total", "counter", "Other 5xx responses.", sv.Failed)
		p.metric("bpmax_server_client_disconnects_total", "counter", "Requests whose client went away mid-fold.", sv.Disconnects)
		p.metric("bpmax_server_draining", "gauge", "1 while the graceful drain is in progress.", sv.Draining)
	}

	if r := s.Runtime; r != nil {
		p.metric("bpmax_go_goroutines", "gauge", "Live goroutine count.", r.Goroutines)
		p.metric("bpmax_go_gc_pause_nanos_total", "counter", "Cumulative stop-the-world GC pause time in nanoseconds.", r.GCPauseTotalNanos)
		p.metric("bpmax_go_gc_cycles_total", "counter", "Completed GC cycles.", r.NumGC)
		p.metric("bpmax_go_heap_alloc_bytes", "gauge", "Live heap bytes.", r.HeapAllocBytes)
		p.metric("bpmax_go_sched_latency_p50_nanos", "gauge", "Median scheduler latency of ready goroutines in nanoseconds.", r.SchedLatencyP50Nanos)
		p.metric("bpmax_go_sched_latency_p99_nanos", "gauge", "p99 scheduler latency of ready goroutines in nanoseconds.", r.SchedLatencyP99Nanos)
	}

	return p.err
}

// writePromHistogram renders a power-of-two nanosecond histogram as a
// Prometheus histogram in seconds, with cumulative buckets and the
// mandatory +Inf bucket.
func writePromHistogram(p *promWriter, name, help string, h HistogramSnapshot) {
	p.header(name, "histogram", help)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		p.printf("%s_bucket{le=%q} %d\n", name,
			strconv.FormatFloat(float64(b.Le)/1e9, 'g', -1, 64), cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	p.printf("%s_sum %s\n", name, strconv.FormatFloat(float64(h.Sum)/1e9, 'g', -1, 64))
	p.printf("%s_count %d\n", name, h.Count)
}

// sortedKeys returns m's keys in sorted order for deterministic output.
func sortedKeys(m map[string]PhaseStat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
