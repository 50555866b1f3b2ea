package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
)

// RuntimeStats is a point-in-time sample of Go runtime health: the signals
// that explain tail latency the solver's own counters cannot (GC pauses
// stealing fill time, goroutine pile-ups behind the admission gate,
// scheduler delay between a wavefront's ready and running states). It is
// attached to Snapshot by whoever owns the process view (cmd/bpmax -stats,
// cmd/bpmaxd /metrics).
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines" prom:",gauge"`
	// GCPauseTotalNanos is the cumulative stop-the-world pause time since
	// process start; NumGC the completed GC cycle count.
	GCPauseTotalNanos int64  `json:"gc_pause_total_nanos" prom:"gc_pause_nanos"`
	NumGC             uint32 `json:"num_gc" prom:"gc_cycles"`
	// HeapAllocBytes is the live heap (allocated and not yet freed);
	// HeapSysBytes the heap memory obtained from the OS.
	HeapAllocBytes int64 `json:"heap_alloc_bytes" prom:",gauge"`
	HeapSysBytes   int64 `json:"heap_sys_bytes" prom:",gauge"`
	// SchedLatencyP50Nanos / P99Nanos are quantiles of the runtime's
	// /sched/latencies:seconds distribution — how long ready goroutines sat
	// waiting for a thread. Zero when the runtime histogram is empty.
	SchedLatencyP50Nanos int64 `json:"sched_latency_p50_nanos" prom:",gauge"`
	SchedLatencyP99Nanos int64 `json:"sched_latency_p99_nanos" prom:",gauge"`
}

// schedLatencyMetric is the runtime/metrics key sampled for scheduler
// latency quantiles.
const schedLatencyMetric = "/sched/latencies:seconds"

// ReadRuntime samples the current runtime health. It calls
// runtime.ReadMemStats (a brief stop-the-world), so it belongs on
// snapshot/diagnostic paths, never per request.
func ReadRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeStats{
		Goroutines:        runtime.NumGoroutine(),
		GCPauseTotalNanos: int64(ms.PauseTotalNs),
		NumGC:             ms.NumGC,
		HeapAllocBytes:    int64(ms.HeapAlloc),
		HeapSysBytes:      int64(ms.HeapSys),
	}
	sample := []rtmetrics.Sample{{Name: schedLatencyMetric}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := sample[0].Value.Float64Histogram()
		s.SchedLatencyP50Nanos = histQuantileNanos(h, 0.50)
		s.SchedLatencyP99Nanos = histQuantileNanos(h, 0.99)
	}
	return s
}

// histQuantileNanos returns the q-quantile of a runtime float64 histogram
// (bucket values in seconds) as nanoseconds, using the upper edge of the
// bucket the quantile falls in. Returns 0 for an empty histogram.
func histQuantileNanos(h *rtmetrics.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			// Buckets[i+1] is bucket i's upper edge; the last bucket's edge
			// can be +Inf — fall back to its (finite) lower edge.
			edge := h.Buckets[i+1]
			if edge > 1e18 || edge != edge { // +Inf or NaN guard
				edge = h.Buckets[i]
			}
			return int64(edge * 1e9)
		}
	}
	return 0
}
