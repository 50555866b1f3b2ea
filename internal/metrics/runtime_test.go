package metrics

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestReadRuntime(t *testing.T) {
	runtime.GC() // ensure at least one cycle so pause totals are nonzero
	s := ReadRuntime()
	if s.Goroutines < 1 {
		t.Fatalf("goroutines = %d", s.Goroutines)
	}
	if s.NumGC < 1 {
		t.Fatalf("num_gc = %d after explicit GC", s.NumGC)
	}
	if s.GCPauseTotalNanos < 0 {
		t.Fatalf("gc pause total = %d", s.GCPauseTotalNanos)
	}
	if s.HeapAllocBytes <= 0 || s.HeapSysBytes <= 0 {
		t.Fatalf("heap = alloc %d sys %d", s.HeapAllocBytes, s.HeapSysBytes)
	}
	if s.SchedLatencyP50Nanos < 0 || s.SchedLatencyP99Nanos < s.SchedLatencyP50Nanos {
		t.Fatalf("sched latency p50=%d p99=%d", s.SchedLatencyP50Nanos, s.SchedLatencyP99Nanos)
	}
}

func TestWriteProm(t *testing.T) {
	var m Metrics
	fm := &FoldMetrics{Schedule: "hybrid", N1: 40, N2: 40, Cells: 1000, FLOPs: 5000, FillNanos: 1e6}
	fm.Phases[PhaseTriangle] = PhaseStat{Nanos: 7e5, Units: 12}
	m.RecordFold(fm)
	m.RecordError()
	m.RecordPartitionFallback()
	m.RecordPartitionFallback()

	s := m.Snapshot()
	s.Cache = &CacheStats{ResultHits: 3, ResultMisses: 1, Entries: 4}
	s.Admission = &AdmissionStats{Admitted: 4, WaitNanosTotal: 12345}
	s.Server = &ServerStats{Requests: 5, OK: 4, Shed: 1, Draining: true}
	rt := ReadRuntime()
	s.Runtime = &rt

	var b strings.Builder
	if err := WriteProm(&b, &s); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE bpmax_folds_total counter",
		"bpmax_folds_total 1",
		"bpmax_fold_errors_total 1",
		"bpmax_partition_guard_fallbacks_total 2",
		"bpmax_phase_nanos_total{phase=\"triangle\"} 700000",
		"# TYPE bpmax_fold_duration_seconds histogram",
		"bpmax_fold_duration_seconds_count 1",
		"bpmax_fold_duration_seconds_bucket{le=\"+Inf\"} 1",
		"bpmax_cache_result_hits_total 3",
		"bpmax_admission_wait_nanos_total 12345",
		"bpmax_server_requests_total 5",
		"bpmax_server_draining 1",
		"bpmax_go_goroutines ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Well-formedness: every non-comment line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}

	// Histogram buckets must be cumulative (non-decreasing).
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "bpmax_fold_duration_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("buckets not cumulative at %q", line)
		}
		prev = v
	}

	// Optional sections stay optional: a bare snapshot renders without them.
	b.Reset()
	bare := m.Snapshot()
	if err := WriteProm(&b, &bare); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "bpmax_server_") || strings.Contains(b.String(), "bpmax_go_") {
		t.Fatal("optional sections rendered for a bare snapshot")
	}
}
