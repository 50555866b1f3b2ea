// Observability layer: metrics, tracing and profiling hooks for the
// solver stack.
//
// Two granularities are exposed. Result.Metrics is the per-fold record —
// schedule identity, per-phase wall time and task counts, wavefronts, and
// derived rates (GFLOPS, cells/second) — written by every fill, at wavefront
// granularity, by the fold's own coordinating goroutine: no allocations and
// no atomics in the fill. It is the solver's one observation sink; a request
// trace (internal/trace, surfaced by cmd/bpmaxd) reads its phases from it.
// A *Metrics passed with WithMetrics is the cumulative aggregate: any number
// of concurrent folds record into it with a bounded number of atomic adds
// at fold end. Engine.Stats and Pool.Stats report component utilization.
// See docs/OBSERVABILITY.md for the metric glossary and the JSON schema.

package bpmax

import (
	"github.com/bpmax-go/bpmax/internal/metrics"
)

// Metrics is a cumulative, concurrency-safe aggregate of completed folds.
// Create one with NewMetrics, attach it to folds with WithMetrics, and
// read it at any time with Snapshot; any number of goroutines may fold
// into one Metrics concurrently. Recording a fold performs a bounded
// number of atomic adds and allocates nothing.
type Metrics = metrics.Metrics

// FoldMetrics is one fold's instrumentation record; see Result.Metrics.
// It is written only by the fold that owns it and is safe to read once the
// fold has returned.
type FoldMetrics = metrics.FoldMetrics

// MetricsSnapshot is the JSON-ready form of a Metrics aggregate, including
// derived rates and optional engine/pool sections; see Metrics.Snapshot.
type MetricsSnapshot = metrics.Snapshot

// FoldSnapshot is the JSON-ready form of one fold's metrics; see
// FoldMetrics.Snapshot.
type FoldSnapshot = metrics.FoldSnapshot

// Phase names one instrumented section of a schedule; PhaseStat holds one
// phase's accumulated wall time and task count.
type (
	Phase     = metrics.Phase
	PhaseStat = metrics.PhaseStat
)

// The instrumented phases. Which phases a fold reports depends on its
// schedule: coarse and base report whole-triangle spans, fine/hybrid
// variants — and a windowed scan, the hybrid schedule on a banded table —
// split accumulation from finalization, and every fold reports substrate
// construction.
const (
	PhaseSubstrate = metrics.PhaseSubstrate
	PhaseAccum     = metrics.PhaseAccum
	PhaseFinalize  = metrics.PhaseFinalize
	PhaseTriangle  = metrics.PhaseTriangle
)

// EngineStats is a snapshot of a persistent engine's utilization counters;
// see Engine.Stats.
type EngineStats = metrics.EngineStats

// PoolStats is a snapshot of a fold-state pool's reuse counters, including
// the buffer arena's traffic and retention; see Pool.Stats.
type PoolStats = metrics.PoolStats

// BufferStats is the buffer-arena section of PoolStats.
type BufferStats = metrics.BufferStats

// CacheStats is a snapshot of a request cache's per-layer hit/miss
// counters, single-flight shares, evictions and retained storage; see
// Cache.Stats.
type CacheStats = metrics.CacheStats

// AdmissionStats is a snapshot of an admission gate's slot occupancy, wait
// queue and cumulative admitted/rejected/expired counters; see
// Admission.Stats.
type AdmissionStats = metrics.AdmissionStats

// FaultStats is a snapshot of the fault-injection registry (armed sites,
// checks, injections fired per site); the CLI attaches it to
// MetricsSnapshot.Faults when -failpoints is set.
type FaultStats = metrics.FaultStats

// ServerStats is a snapshot of an HTTP front-end's request accounting by
// status class; cmd/bpmaxd attaches it to MetricsSnapshot.Server.
type ServerStats = metrics.ServerStats

// RuntimeStats is a point-in-time Go runtime health sample (goroutines, GC
// pauses, heap, scheduler latency quantiles); process-level snapshot paths
// attach it to MetricsSnapshot.Runtime.
type RuntimeStats = metrics.RuntimeStats

// ReadRuntimeStats samples the current Go runtime health. It performs a
// brief stop-the-world (runtime.ReadMemStats), so call it on snapshot and
// diagnostic paths, not per request.
func ReadRuntimeStats() RuntimeStats { return metrics.ReadRuntime() }

// NewMetrics returns an empty cumulative metrics aggregate.
func NewMetrics() *Metrics { return &Metrics{} }

// WithMetrics aggregates every fill run with this option into m: the
// per-fold record (Result.Metrics, which every fold carries with or without
// this option) is added at fold end, failed attempts count as errors,
// degraded folds as degradations. A fold served from the result cache ran
// no fill and adds nothing; WithCache counts it as a result hit. A nil m
// leaves aggregation off.
//
// The instrumentation contract is strict: recording adds zero allocations
// to a pooled steady-state fold and only wavefront-granularity timestamps
// to the fill (two time.Now calls per phase per wavefront).
func WithMetrics(m *Metrics) Option {
	return func(o *options) { o.metrics = m }
}

// Stats snapshots the engine's cumulative utilization counters: parallel
// loops run, helper recruitment rates, dynamic chunk claims, recovered
// panics. Safe to call concurrently with running folds.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Stats snapshots the pool's cumulative reuse counters: hits and misses
// per recycled shell kind (problem substrates, F tables, windowed bands,
// solver scratch, result shells) and the buffer arena's traffic, live
// count and retention high-water mark. Safe to call concurrently with
// running folds.
func (p *Pool) Stats() PoolStats {
	s := p.p.Stats()
	s.ResultHits = p.resultHits.Load()
	s.ResultMisses = p.resultMisses.Load()
	return s
}
