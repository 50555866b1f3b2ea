// Package trace is the request-tracing layer of the serving spine: one
// Trace per request, carried through the pipeline in a context.Context,
// recording how the request's wall time divided across the serving stages —
// HTTP decode, admission queue wait, cache probe outcomes, substrate fill,
// the solver's own fold phases, traceback and response encode.
//
// The design mirrors internal/metrics' two-layer split, but per request
// instead of per process:
//
//   - A *Trace accumulates per-stage busy time and span extents under one
//     mutex. It is written by whichever goroutines serve the request (the
//     handler goroutine, and batch workers for /v1/batch), so unlike
//     FoldMetrics it must tolerate concurrency — tracing is the armed,
//     allocation-tolerant path.
//   - The disarmed path is free: every method is nil-receiver safe, Begin
//     on a nil Trace returns the zero Time without reading the clock, and
//     FromContext on a context without a trace is one Value lookup. A
//     pooled steady-state fold with no trace in its context performs no
//     allocation and no timestamp on behalf of this package (enforced by
//     TestDisarmedPathAllocsNothing).
//
// The solver knows nothing of this package. It records every fill into the
// fold's metrics.FoldMetrics, and the pipeline copies that record's fill
// phases into the request trace once the solver has returned (AddFill) —
// on error exits too, so a cancelled or faulted fill still reports the
// partial phase time the solver credited before it stopped.
//
// Snapshots feed three consumers: the /debug/requests ring (ring.go), the
// Chrome trace-event export (chrome.go), and the Server-Timing response
// header that lets a load harness attribute tail latency per stage without
// scraping the server (ServerTiming).
package trace

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bpmax-go/bpmax/internal/metrics"
)

// Stage names one attributable section of a request's wall time. The
// taxonomy extends the solver's metrics.Phase decomposition outward to the
// serving layers: everything between "a request arrived" and "the response
// was written" lands in exactly one stage (or in the synthetic "other"
// remainder the Server-Timing header reports).
type Stage uint8

const (
	// StageDecode is HTTP request-body decoding (JSON parse + validation).
	StageDecode Stage = iota
	// StageQueue is the admission gate: time spent waiting for a
	// concurrency slot (near zero when uncontended or admission is off).
	StageQueue
	// StageCacheHit is a result-cache hit: the whole serve time of a
	// request answered from the retained master.
	StageCacheHit
	// StageCacheWait is a single-flight wait: time spent parked behind
	// another request's in-flight identical solve.
	StageCacheWait
	// StageSubstrate through StageTriangle mirror metrics.Phase index for
	// index (phase p is stage StageSubstrate + p), so a fold's phase record
	// needs no translation table.
	StageSubstrate
	StageAccum
	StageFinalize
	StageTriangle
	// StageTraceback is structure recovery (the optional traceback walk).
	StageTraceback
	// StageEncode is HTTP response encoding.
	StageEncode
	// StageCount sizes per-stage arrays; not a stage.
	StageCount
)

var stageNames = [StageCount]string{
	StageDecode:    "decode",
	StageQueue:     "queue",
	StageCacheHit:  "cache-hit",
	StageCacheWait: "singleflight-wait",
	StageSubstrate: "substrate",
	StageAccum:     "accumulate",
	StageFinalize:  "finalize",
	StageTriangle:  "triangle",
	StageTraceback: "traceback",
	StageEncode:    "encode",
}

// String returns the stable label used in snapshots, Server-Timing entries
// and the slog field glossary.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageStat accumulates one stage's activity inside a single request:
// total busy time, span count, and the extent [First, Last] (offsets from
// trace start) its spans covered.
type StageStat struct {
	BusyNanos  int64 `json:"busy_nanos"`
	Count      int64 `json:"count"`
	FirstNanos int64 `json:"first_nanos"`
	LastNanos  int64 `json:"last_nanos"`
}

// Trace records one request's stage breakdown. Create with New, carry with
// NewContext/FromContext, record with Begin/End (explicit spans) and
// AddFill (a finished fill's phase record), seal with Finish. All methods
// are safe for concurrent use and safe on a nil receiver — a nil *Trace is
// the disarmed state and costs nothing.
type Trace struct {
	id    string
	op    string
	start time.Time

	mu     sync.Mutex
	name   string
	labels map[string]string
	stages [StageCount]StageStat
	status int
	endNs  int64
}

// New starts a trace for one request. id is the correlation id echoed as
// X-Request-ID (use NewID when the client sent none); op labels the
// request kind ("fold", "scan", "batch", ...).
func New(id, op string) *Trace {
	return &Trace{id: id, op: op, start: time.Now()}
}

// NewID returns a fresh 16-hex-digit request id.
func NewID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// ID returns the trace's correlation id ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetName attaches the client's request label (trace replay name).
func (t *Trace) SetName(name string) {
	if t == nil || name == "" {
		return
	}
	t.mu.Lock()
	t.name = name
	t.mu.Unlock()
}

// SetLabel attaches one plan fact to the request (which domain served a
// partition fold, ...): what the pipeline decided, next to where the time
// went. A later value for the same key wins.
func (t *Trace) SetLabel(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.labels == nil {
		t.labels = map[string]string{}
	}
	t.labels[key] = value
	t.mu.Unlock()
}

// Begin opens an explicit span: it returns the span's start time, or the
// zero Time on a nil trace — in which case the matching End is a no-op and
// no clock was read.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes an explicit span opened by Begin (or at a start time the caller
// read itself), attributing its wall time to stage st.
func (t *Trace) End(st Stage, start time.Time) {
	if t == nil || start.IsZero() || st >= StageCount {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.stages[st].add(start.Sub(t.start), now.Sub(t.start), now.Sub(start))
	t.mu.Unlock()
}

// AddFill copies a fill's phase record into the trace: every fill phase the
// solver credited (accumulate, finalize, triangle) becomes one span of its
// stage, busy for exactly the recorded nanos, with the fill's extent
// [start, now] — the phases of one fill interleave wavefront by wavefront,
// so they share it. The substrate phase is not copied; the pipeline spans
// that stage itself (End).
func (t *Trace) AddFill(start time.Time, fm *metrics.FoldMetrics) {
	if t == nil {
		return
	}
	first, last := start.Sub(t.start), time.Since(t.start)
	t.mu.Lock()
	for p := metrics.PhaseAccum; p < metrics.PhaseCount; p++ {
		if ns := fm.Phases[p].Nanos; ns > 0 {
			t.stages[StageSubstrate+Stage(p)].add(first, last, time.Duration(ns))
		}
	}
	t.mu.Unlock()
}

// add credits one span covering [first, last] (offsets from trace start)
// with busy time busy.
func (s *StageStat) add(first, last, busy time.Duration) {
	s.BusyNanos += int64(busy)
	s.Count++
	if s.Count == 1 || int64(first) < s.FirstNanos {
		s.FirstNanos = int64(first)
	}
	if int64(last) > s.LastNanos {
		s.LastNanos = int64(last)
	}
}

// Finish seals the trace with the request's final status. Idempotent-ish:
// a second Finish overwrites status and end, which never happens on the
// single serve path.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.start))
	t.mu.Lock()
	t.status = status
	t.endNs = end
	t.mu.Unlock()
}

// ServerTiming renders the trace's current stage totals as a Server-Timing
// header value (RFC draft syntax: `name;dur=millis`, comma-separated).
// Two synthetic entries complete the ledger: "other" is the handler time
// not attributed to any stage so far, and "total" is the wall time from
// request start to this call — so per-request stage sums reconcile with
// the server-side end-to-end latency by construction, and any large
// "other" is visible rather than hidden. Encode time is excluded (the
// header is written before the body); the /debug/requests ring has it.
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	total := time.Since(t.start)
	t.mu.Lock()
	var b strings.Builder
	var attributed int64
	for st := Stage(0); st < StageCount; st++ {
		s := t.stages[st]
		if s.Count == 0 || st == StageEncode {
			continue
		}
		attributed += s.BusyNanos
		appendTiming(&b, st.String(), s.BusyNanos)
	}
	t.mu.Unlock()
	other := int64(total) - attributed
	if other < 0 {
		other = 0
	}
	appendTiming(&b, "other", other)
	appendTiming(&b, "total", int64(total))
	return b.String()
}

// appendTiming writes one `name;dur=ms` entry (dur in milliseconds, three
// decimals — microsecond resolution survives the round trip).
func appendTiming(b *strings.Builder, name string, nanos int64) {
	if b.Len() > 0 {
		b.WriteString(", ")
	}
	b.WriteString(name)
	b.WriteString(";dur=")
	b.WriteString(strconv.FormatFloat(float64(nanos)/1e6, 'f', 3, 64))
}

// StageSnapshot is the JSON form of one stage's stats inside a request.
type StageSnapshot struct {
	Stage      string `json:"stage"`
	BusyNanos  int64  `json:"busy_nanos"`
	Count      int64  `json:"count"`
	FirstNanos int64  `json:"first_nanos"`
	LastNanos  int64  `json:"last_nanos"`
}

// Snapshot is the JSON form of one request trace — the unit the
// /debug/requests ring stores and the Chrome export renders.
type Snapshot struct {
	ID   string `json:"id"`
	Op   string `json:"op"`
	Name string `json:"name,omitempty"`
	// Labels are the plan facts the pipeline stamped (SetLabel), e.g.
	// partition_domain = scaled|log, kernel = avx2|go.
	Labels map[string]string `json:"labels,omitempty"`
	Start  time.Time         `json:"start"`
	// TotalNanos is the request's end-to-end wall time (through Finish).
	TotalNanos int64 `json:"total_nanos"`
	// Status is the HTTP status the request resolved to (499 for client
	// disconnects, 0 if the trace was never finished).
	Status int             `json:"status,omitempty"`
	Stages []StageSnapshot `json:"stages"`
}

// Snapshot copies the trace into its serializable form. Stages that never
// recorded a span are omitted. Safe to call before Finish (TotalNanos is
// then the time elapsed so far).
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	s := Snapshot{
		ID:         t.id,
		Op:         t.op,
		Name:       t.name,
		Start:      t.start,
		TotalNanos: t.endNs,
		Status:     t.status,
	}
	if s.TotalNanos == 0 {
		s.TotalNanos = int64(time.Since(t.start))
	}
	s.Labels = maps.Clone(t.labels)
	for st := Stage(0); st < StageCount; st++ {
		if stat := t.stages[st]; stat.Count > 0 {
			s.Stages = append(s.Stages, StageSnapshot{
				Stage:      st.String(),
				BusyNanos:  stat.BusyNanos,
				Count:      stat.Count,
				FirstNanos: stat.FirstNanos,
				LastNanos:  stat.LastNanos,
			})
		}
	}
	t.mu.Unlock()
	return s
}

// ctxKey is the private context key carrying the request's *Trace.
type ctxKey struct{}

// NewContext returns ctx carrying t. A nil t returns ctx unchanged, so the
// disarmed server path adds no context wrapper.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — the disarmed
// state every recording method treats as "do nothing, read no clock".
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
