// Package metrics is the observability substrate of the solver stack:
// allocation-free per-fold instrumentation (phase timings, cell and FLOP
// throughput), atomic cross-fold aggregation safe under any concurrency,
// and JSON snapshots whose schema the CLIs emit and the CI benchmark gate
// consumes.
//
// The design splits recording in two layers so the hot path stays free of
// both allocation and contention:
//
//   - FoldMetrics is a plain struct owned by exactly one fold. The solver's
//     coordinating goroutine writes it at wavefront granularity (two
//     time.Now calls per phase per wavefront), so no atomics are needed and
//     enabling it costs nothing on the worker goroutines that execute the
//     actual max-plus kernels.
//   - Metrics is the cumulative, concurrency-safe aggregate: folds from any
//     number of goroutines fold their FoldMetrics into it with atomic adds
//     at fold end (a dozen atomic operations per fold, not per cell).
//
// Engine and pool utilization counters live with their owners
// (internal/bpmax.Engine, internal/bpmax.Pool, internal/bufpool.Pool); this
// package defines the snapshot structs (EngineStats, PoolStats,
// BufferStats) so every layer reports through one schema.
package metrics

import "sync/atomic"

// Phase names one instrumented section of a schedule. Phases are the
// paper's own decomposition: the R0/R3/R4 accumulation that streams
// finalized triangles (phase A of the hybrid schedules), the serial-ish
// R1/R2 + cell-update finalize pass (phase B), and whole-triangle units for
// the base/coarse schedules. A windowed scan is the hybrid schedule on a
// banded table and reports phases A and B under Schedule "windowed".
type Phase uint8

const (
	// PhaseSubstrate is problem construction: sequence parsing, the pair
	// score tables and the two Nussinov S tables.
	PhaseSubstrate Phase = iota
	// PhaseAccum is the R0/R3/R4 accumulation (rows or row tiles; phase A
	// of the fine/hybrid/hybrid-tiled schedules).
	PhaseAccum
	// PhaseFinalize is the R1/R2 + cell-update pass (phase B; triangle
	// granularity).
	PhaseFinalize
	// PhaseTriangle is whole-triangle work: the unit of the coarse
	// schedule, and the entire fill of the base schedule.
	PhaseTriangle
	// PhaseCount sizes per-phase arrays; not a phase.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	PhaseSubstrate: "substrate",
	PhaseAccum:     "accumulate",
	PhaseFinalize:  "finalize",
	PhaseTriangle:  "triangle",
}

// String returns the stable label used in snapshots and traces.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseStat accumulates one phase's wall time and unit count (units are
// the phase's tasks: rows, row tiles, or triangles).
type PhaseStat struct {
	Nanos int64 `json:"nanos"`
	Units int64 `json:"units"`
}

// FoldMetrics instruments one fold. It is owned by a single fold and
// written only by that fold's coordinating goroutine, so reads are safe
// once the fold has returned and recording needs no atomics. The zero
// value is ready; Reset reuses the struct across pooled folds.
type FoldMetrics struct {
	// Schedule is the executed schedule's name ("hybrid-tiled", ...). For a
	// fold that degraded to a windowed scan it is "windowed".
	Schedule string `json:"schedule"`
	// Kernel names the implementation of the streaming kernels the fill ran
	// on: "avx512" or "avx2" (the vector assembly the CPU chose at start-up,
	// for max-plus and for the scaled partition's sum-product) or "go" (the
	// portable loops: a log-domain partition fold, the base schedule's
	// gathers, and any fold on a build or CPU without the vector bodies).
	Kernel string `json:"kernel,omitempty"`
	// N1, N2 are the sequence lengths; Workers the requested width.
	N1      int `json:"n1"`
	N2      int `json:"n2"`
	Workers int `json:"workers"`
	// Wavefronts counts outer anti-diagonals executed.
	Wavefronts int64 `json:"wavefronts"`
	// Phases holds per-phase wall time and task counts, indexed by Phase.
	Phases [PhaseCount]PhaseStat `json:"-"`
	// FillNanos is the wall time of the table fill (excludes substrate
	// construction and traceback).
	FillNanos int64 `json:"fill_nanos"`
	// Cells is the number of DP cells computed; FLOPs the analytic
	// max-plus operation count (0 for windowed scans).
	Cells int64 `json:"cells"`
	FLOPs int64 `json:"flops"`
	// TableBytes is the fold's table footprint; BudgetEstimateBytes the
	// pre-allocation estimate charged against WithMemoryLimit (0 when no
	// limit was set).
	TableBytes          int64 `json:"table_bytes"`
	BudgetEstimateBytes int64 `json:"budget_estimate_bytes"`
	// Degraded records the degradation rung ("none", "packed",
	// "windowed").
	Degraded string `json:"degraded"`
	// Algebra records the evaluation semiring ("maxplus", "partition");
	// empty on records from layers that predate the field.
	Algebra string `json:"algebra,omitempty"`
	// PartitionDomain records which number domain filled a partition fold's
	// table: "scaled" (linear sum-product, the fast path) or "log"
	// (log-sum-exp: an oracle schedule, or the refill after the scaled
	// fill's range guard tripped). Empty on max-plus folds.
	PartitionDomain string `json:"partition_domain,omitempty"`
}

// Reset zeroes the struct for reuse by a pooled fold.
func (m *FoldMetrics) Reset() { *m = FoldMetrics{} }

// GFLOPS returns the effective max-plus throughput of the fill.
func (m *FoldMetrics) GFLOPS() float64 {
	g, _ := rates(m.FLOPs, m.Cells, m.FillNanos)
	return g
}

// CellsPerSecond returns the DP-cell fill rate.
func (m *FoldMetrics) CellsPerSecond() float64 {
	_, c := rates(m.FLOPs, m.Cells, m.FillNanos)
	return c
}

// Snapshot renders the fold metrics with phases keyed by name (zero
// phases omitted) and derived rates attached.
func (m *FoldMetrics) Snapshot() FoldSnapshot {
	s := FoldSnapshot{FoldMetrics: *m, Phases: phaseMap(func(p Phase) PhaseStat { return m.Phases[p] })}
	s.FoldMetrics.Phases = [PhaseCount]PhaseStat{} // the map carries them; JSON has no array
	s.GFLOPS, s.CellsPerSecond = rates(m.FLOPs, m.Cells, m.FillNanos)
	return s
}

// FoldSnapshot is the JSON form of one fold's metrics: the record itself,
// its phases keyed by name (Phases shadows the record's per-Phase array)
// and its derived rates.
type FoldSnapshot struct {
	FoldMetrics
	Phases         map[string]PhaseStat `json:"phases,omitempty"`
	GFLOPS         float64              `json:"gflops"`
	CellsPerSecond float64              `json:"cells_per_second"`
}

// rates derives a fill's GFLOPS and DP cells per second from its operation
// and cell counts and its wall time (zero before any fill time).
func rates(flops, cells, nanos int64) (gflops, cellsPerSecond float64) {
	if nanos <= 0 {
		return 0, 0
	}
	return float64(flops) / float64(nanos), float64(cells) / (float64(nanos) / 1e9)
}

// phaseMap keys the non-zero phase stats by phase name (nil when all are
// zero).
func phaseMap(stat func(Phase) PhaseStat) map[string]PhaseStat {
	var out map[string]PhaseStat
	for p := Phase(0); p < PhaseCount; p++ {
		if st := stat(p); st != (PhaseStat{}) {
			if out == nil {
				out = map[string]PhaseStat{}
			}
			out[p.String()] = st
		}
	}
	return out
}

// HighWater is an atomic maximum tracker.
type HighWater struct{ v atomic.Int64 }

// Update raises the mark to x if x is higher.
func (w *HighWater) Update(x int64) {
	for {
		cur := w.v.Load()
		if x <= cur || w.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Load returns the current mark.
func (w *HighWater) Load() int64 { return w.v.Load() }

// Metrics aggregates folds from any number of goroutines. All methods are
// safe for concurrent use; recording a fold performs a bounded number of
// atomic adds and allocates nothing. The zero value is ready.
type Metrics struct {
	folds    atomic.Int64
	errors   atomic.Int64
	degraded atomic.Int64

	cells     atomic.Int64
	flops     atomic.Int64
	fillNanos atomic.Int64

	phaseNanos [PhaseCount]atomic.Int64
	phaseUnits [PhaseCount]atomic.Int64

	tableBytesHW HighWater
	budgetHW     HighWater

	foldNanos Histogram

	retries          atomic.Int64
	retrySuccesses   atomic.Int64
	retriesExhausted atomic.Int64

	partitionFallbacks atomic.Int64
}

// RecordFold folds one completed fold's metrics into the aggregate.
func (m *Metrics) RecordFold(fm *FoldMetrics) {
	if m == nil || fm == nil {
		return
	}
	m.folds.Add(1)
	if fm.Degraded != "" && fm.Degraded != "none" {
		m.degraded.Add(1)
	}
	m.cells.Add(fm.Cells)
	m.flops.Add(fm.FLOPs)
	m.fillNanos.Add(fm.FillNanos)
	for p := Phase(0); p < PhaseCount; p++ {
		if st := fm.Phases[p]; st != (PhaseStat{}) {
			m.phaseNanos[p].Add(st.Nanos)
			m.phaseUnits[p].Add(st.Units)
		}
	}
	m.tableBytesHW.Update(fm.TableBytes)
	m.budgetHW.Update(fm.BudgetEstimateBytes)
	m.foldNanos.Observe(fm.FillNanos)
}

// RecordError counts a failed fold (cancelled, over budget, panicked,
// invalid input).
func (m *Metrics) RecordError() {
	if m != nil {
		m.errors.Add(1)
	}
}

// RecordRetry counts one retry attempt of a transiently failed fold.
func (m *Metrics) RecordRetry() {
	if m != nil {
		m.retries.Add(1)
	}
}

// RecordRetrySuccess counts a fold that failed transiently but succeeded on
// a retry attempt.
func (m *Metrics) RecordRetrySuccess() {
	if m != nil {
		m.retrySuccesses.Add(1)
	}
}

// RecordRetryExhausted counts a fold that was retried and still failed when
// its attempt budget ran out.
func (m *Metrics) RecordRetryExhausted() {
	if m != nil {
		m.retriesExhausted.Add(1)
	}
}

// RecordPartitionFallback counts one tripped range guard of the scaled
// partition domain: a strand substrate or a pair fill that left the float64
// window and was redone in the log domain.
func (m *Metrics) RecordPartitionFallback() {
	if m != nil {
		m.partitionFallbacks.Add(1)
	}
}

// Folds returns the number of successful folds recorded.
func (m *Metrics) Folds() int64 { return m.folds.Load() }

// Errors returns the number of failed folds recorded.
func (m *Metrics) Errors() int64 { return m.errors.Load() }

// Snapshot returns a point-in-time copy for serialization. Concurrent
// recording keeps running; the snapshot is internally consistent enough
// for monitoring (each counter is read once, atomically).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Folds:               m.folds.Load(),
		Errors:              m.errors.Load(),
		Degraded:            m.degraded.Load(),
		Cells:               m.cells.Load(),
		FLOPs:               m.flops.Load(),
		FillNanos:           m.fillNanos.Load(),
		TableBytesHighWater: m.tableBytesHW.Load(),
		BudgetHighWater:     m.budgetHW.Load(),
		FoldNanos:           m.foldNanos.Snapshot(),
		Retries:             m.retries.Load(),
		RetrySuccesses:      m.retrySuccesses.Load(),
		RetriesExhausted:    m.retriesExhausted.Load(),
		PartitionFallbacks:  m.partitionFallbacks.Load(),
		Phases: phaseMap(func(p Phase) PhaseStat {
			return PhaseStat{Nanos: m.phaseNanos[p].Load(), Units: m.phaseUnits[p].Load()}
		}),
	}
	s.GFLOPS, s.CellsPerSecond = rates(s.FLOPs, s.Cells, s.FillNanos)
	return s
}

// Snapshot is the JSON form of the cumulative aggregate. Engine and Pool
// are attached by the caller that owns those components (the solver layer
// cannot know which engine or pool a service routes folds through).
type Snapshot struct {
	Folds    int64 `json:"folds"`
	Errors   int64 `json:"errors" prom:"fold_errors"`
	Degraded int64 `json:"degraded" prom:"folds_degraded"`

	Cells          int64   `json:"cells"`
	FLOPs          int64   `json:"flops"`
	FillNanos      int64   `json:"fill_nanos"`
	GFLOPS         float64 `json:"gflops" prom:",gauge"`
	CellsPerSecond float64 `json:"cells_per_second" prom:",gauge"`

	Phases map[string]PhaseStat `json:"phases,omitempty" prom:"phase"`

	TableBytesHighWater int64 `json:"table_bytes_high_water" prom:",gauge"`
	BudgetHighWater     int64 `json:"budget_estimate_high_water" prom:",gauge"`

	FoldNanos HistogramSnapshot `json:"fold_nanos" prom:"fold_duration_seconds"`

	// Retries counts retry attempts under WithRetry; RetrySuccesses the
	// folds rescued by one, RetriesExhausted the folds that were retried and
	// still failed.
	Retries          int64 `json:"retries"`
	RetrySuccesses   int64 `json:"retry_successes"`
	RetriesExhausted int64 `json:"retries_exhausted"`

	// PartitionFallbacks counts range-guard trips of the scaled partition
	// domain (substrate builds and pair fills redone in the log domain).
	PartitionFallbacks int64 `json:"partition_guard_fallbacks"`

	Engine    *EngineStats    `json:"engine,omitempty"`
	Pool      *PoolStats      `json:"pool,omitempty"`
	Cache     *CacheStats     `json:"cache,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Faults is the fault-injection registry's activity, attached by callers
	// that armed failpoints (nil in normal operation).
	Faults *FaultStats `json:"faults,omitempty"`
	// Server is the HTTP front-end's request accounting, attached by
	// cmd/bpmaxd (nil when the metrics owner is not a network server).
	Server *ServerStats `json:"server,omitempty"`
	// Runtime is a Go runtime health sample (ReadRuntime), attached by
	// process-level snapshot paths (bpmax -stats, bpmaxd /metrics).
	Runtime *RuntimeStats `json:"runtime,omitempty" prom:"go"`
}

// ServerStats counts an HTTP front-end's request outcomes by status class.
// The invariant a load harness checks against its own client-side counts is
// Requests == OK + BadRequest + Shed + Unavailable + Timeouts + Failed +
// InFlight (in-flight only while serving; zero after a drain).
type ServerStats struct {
	// Requests counts every request routed to a serving endpoint
	// (/v1/*); health, metrics and pprof probes are not included.
	Requests int64 `json:"requests"`
	// InFlight is the number of requests currently being served.
	InFlight int64 `json:"in_flight" prom:",gauge"`
	// OK counts 2xx responses.
	OK int64 `json:"ok"`
	// BadRequest counts 4xx responses other than 429 (malformed bodies,
	// invalid sequences, unknown options).
	BadRequest int64 `json:"bad_request"`
	// Shed counts 429 responses: admission queue full, load shed.
	Shed int64 `json:"shed"`
	// Unavailable counts 503 responses (session closed / draining).
	Unavailable int64 `json:"unavailable"`
	// Timeouts counts 504 responses: the per-request deadline expired
	// before the fold finished (queued or solving).
	Timeouts int64 `json:"timeouts"`
	// Failed counts 5xx responses other than 503/504 (solver panics
	// surfacing as 500s).
	Failed int64 `json:"failed"`
	// Disconnects counts requests whose client went away mid-fold
	// (context canceled by the peer, no response written).
	Disconnects int64 `json:"client_disconnects"`
	// Draining reports whether the server has begun its graceful drain.
	Draining bool `json:"draining" prom:",gauge"`
}

// EngineStats is a snapshot of a persistent worker engine's utilization
// counters: how often parallel loops actually recruited parked helpers
// versus running sequentially or finding every helper busy, and how many
// dynamic chunk claims the workers made.
type EngineStats struct {
	// Width is the engine's total parallel width (submitter + helpers).
	Width int `json:"width" prom:",gauge"`
	// Runs counts parallel loops executed on the engine; SequentialRuns
	// the subset that ran on the submitter alone (width or n clamped
	// to 1); FallbackRuns loops submitted after Close, which also ran on
	// the submitter alone (a closed engine has no helpers to offer).
	Runs           int64 `json:"runs"`
	SequentialRuns int64 `json:"sequential_runs"`
	FallbackRuns   int64 `json:"fallback_runs"`
	// HelperOffers counts recruitment attempts (one per potential helper
	// per run); HelpersRecruited the offers a parked helper accepted. The
	// difference is demand that found every helper busy — the
	// degrade-to-submitter path.
	HelperOffers     int64 `json:"helper_offers"`
	HelpersRecruited int64 `json:"helpers_recruited"`
	// ChunksClaimed counts dynamic-scheduling claims across all workers
	// (each claim is one index of a loop).
	ChunksClaimed int64 `json:"chunks_claimed"`
	// Panics counts solver panics recovered inside engine jobs.
	Panics int64 `json:"panics"`
}

// PoolStats is a snapshot of the fold-state pool's reuse counters. A hit
// serves a request from a recycled shell; a miss falls through to the
// allocator (expected while warming).
type PoolStats struct {
	ProblemHits   int64 `json:"problem_hits"`
	ProblemMisses int64 `json:"problem_misses"`
	// FTableHits/FTableMisses count every table draw, full or banded.
	FTableHits   int64 `json:"ftable_hits"`
	FTableMisses int64 `json:"ftable_misses"`
	// WTableHits/WTableMisses always read 0: there is no separate banded
	// table any more. The fields stay only because the frozen bench/ module
	// sums them; remove them the next time bench/ is opened.
	WTableHits   int64 `json:"wtable_hits"`
	WTableMisses int64 `json:"wtable_misses"`
	SolverHits   int64 `json:"solver_hits"`
	SolverMisses int64 `json:"solver_misses"`
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	// Buffers is the size-classed float32 arena behind the tables.
	Buffers BufferStats `json:"buffers"`
}

// HitRate returns the overall shell reuse rate across all shell kinds.
func (s PoolStats) HitRate() float64 {
	hits := s.ProblemHits + s.FTableHits + s.SolverHits + s.ResultHits
	total := hits + s.ProblemMisses + s.FTableMisses + s.SolverMisses + s.ResultMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// CacheStats is a snapshot of the content-addressed request cache. The two
// entry classes are counted separately: substrate entries memoize one
// strand's Nussinov S table (or its Boltzmann table), result entries retain a
// whole completed fold (or an ensemble). A hit was served from a retained
// entry; a miss built the value and retained it.
type CacheStats struct {
	SubstrateHits   int64 `json:"substrate_hits"`
	SubstrateMisses int64 `json:"substrate_misses"`
	ResultHits      int64 `json:"result_hits"`
	ResultMisses    int64 `json:"result_misses"`
	// SingleFlightShared counts lookups — of either class — served by
	// another request's in-flight build of the same key instead of building
	// themselves.
	SingleFlightShared int64 `json:"single_flight_shared" prom:"singleflight_shared"`
	// Evictions counts entries dropped by the LRU policy; Entries is the
	// current entry count across both classes.
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries" prom:",gauge"`
	// RetainedBytes is the storage currently pinned by cache entries (it is
	// charged against WithMemoryLimit budgets); RetainedHighWater the
	// maximum ever pinned.
	RetainedBytes     int64 `json:"retained_bytes" prom:",gauge"`
	RetainedHighWater int64 `json:"retained_high_water" prom:",gauge"`
	// BreakerOpens counts circuit-breaker trips — any cached key, a pair's
	// result or a strand's table, whose single-flight leaders kept failing;
	// BreakerBypasses the requests built cold because their key's breaker was
	// open; BreakerOpenKeys the keys currently open or half-open.
	BreakerOpens    int64 `json:"breaker_opens"`
	BreakerBypasses int64 `json:"breaker_bypasses"`
	BreakerOpenKeys int64 `json:"breaker_open_keys" prom:",gauge"`
}

// AdmissionStats is a snapshot of an admission gate: the bounded concurrency
// slots, the FIFO wait queue, and the fate of every request that reached the
// gate (admitted, rejected because the queue was full, or expired while
// queued because its context ended first).
type AdmissionStats struct {
	// MaxConcurrent and MaxQueue echo the gate's configuration (MaxQueue 0
	// means unbounded).
	MaxConcurrent int `json:"max_concurrent" prom:",gauge"`
	MaxQueue      int `json:"max_queue" prom:",gauge"`
	// Running is the number of requests currently holding a slot;
	// QueueDepth the number currently waiting.
	Running    int64 `json:"running" prom:",gauge"`
	QueueDepth int64 `json:"queue_depth" prom:",gauge"`
	// QueueDepthHighWater is the deepest the wait queue has ever been.
	QueueDepthHighWater int64 `json:"queue_depth_high_water" prom:",gauge"`
	Admitted            int64 `json:"admitted"`
	Rejected            int64 `json:"rejected"`
	Expired             int64 `json:"expired"`
	// WaitNanosTotal sums the queue time of every admitted request;
	// WaitNanosHighWater is the longest any single request waited.
	WaitNanosTotal     int64 `json:"wait_nanos_total"`
	WaitNanosHighWater int64 `json:"wait_nanos_high_water" prom:",gauge"`
}

// FaultStats is a snapshot of the fault-injection registry
// (internal/fault): how many sites are armed, how many checks armed sites
// have seen, and how many injections fired, broken down by site.
type FaultStats struct {
	Armed    int   `json:"armed" prom:",gauge"`
	Checks   int64 `json:"checks"`
	Injected int64 `json:"injected"`
	// Sites maps site name to its injection count (sites that never fired
	// are omitted).
	Sites map[string]int64 `json:"sites,omitempty"`
}

// BufferStats is a snapshot of the size-classed buffer arena.
type BufferStats struct {
	// Gets counts buffers served; Hits the subset reusing an idle pooled
	// buffer; Misses fresh allocations.
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts buffers returned to the arena; Drops returns discarded
	// because the class was full or the buffer was not class-shaped.
	Puts  int64 `json:"puts"`
	Drops int64 `json:"drops"`
	// Live is Gets minus returns — buffers currently owned by callers. A
	// monotonically growing Live under a steady workload indicates leaked
	// results (folds whose Release was never called).
	Live int64 `json:"live" prom:"live_buffers,gauge"`
	// RetainedBytes is the idle storage parked in the arena now;
	// RetainedHighWater the maximum ever parked.
	RetainedBytes     int64 `json:"retained_bytes" prom:"retained_bytes,gauge"`
	RetainedHighWater int64 `json:"retained_high_water" prom:",gauge"`
}
