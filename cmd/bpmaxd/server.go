package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/trace"
)

// statusClientClosed is the nginx-convention status for "client closed the
// connection before the response": never seen by the (gone) client, but it
// keeps the access accounting honest.
const statusClientClosed = 499

// serverConfig carries the HTTP-layer knobs from flags to newServer.
type serverConfig struct {
	// DefaultTimeout bounds requests that do not send timeout_ms
	// (0 = unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms a client may ask for
	// (0 = uncapped).
	MaxTimeout time.Duration
	// MaxBody bounds request bodies in bytes.
	MaxBody int64
	// ScanWindow is the span used when a scan request omits w1/w2.
	ScanWindow int
	// BatchWorkers is the worker budget of /v1/batch (0 = all CPUs).
	BatchWorkers int
	// TraceRequests arms per-request tracing: X-Request-ID echo,
	// Server-Timing stage breakdowns, and the /debug/requests ring. Off by
	// default so the zero config matches the untraced fast path.
	TraceRequests bool
	// TraceRing / TraceSlowest size the /debug/requests retention window
	// (recent and slowest-N respectively; 0 = defaults).
	TraceRing    int
	TraceSlowest int
	// Logger receives per-request access records and server lifecycle
	// events; nil disables access logging entirely.
	Logger *slog.Logger
}

// server is the HTTP front-end over one Session. All handler state is
// either immutable after newServer or atomic; handlers run on the
// net/http goroutine pool.
type server struct {
	session *bpmax.Session
	cfg     serverConfig
	mux     *http.ServeMux
	ring    *trace.Ring  // nil unless TraceRequests
	logger  *slog.Logger // nil unless configured

	draining atomic.Bool

	requests    atomic.Int64
	inFlight    atomic.Int64
	ok2xx       atomic.Int64
	badReq      atomic.Int64
	shed        atomic.Int64
	unavailable atomic.Int64
	timeouts    atomic.Int64
	failed      atomic.Int64
	disconnects atomic.Int64
}

// newServer wires the endpoint table over session, whose Stats is the source
// of every component section the server reports (and of the Retry-After
// estimate).
func newServer(session *bpmax.Session, cfg serverConfig) *server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.ScanWindow <= 0 {
		cfg.ScanWindow = 64
	}
	s := &server{session: session, cfg: cfg, mux: http.NewServeMux(), logger: cfg.Logger}
	if cfg.TraceRequests {
		recent, slowest := cfg.TraceRing, cfg.TraceSlowest
		if recent <= 0 {
			recent = 128
		}
		if slowest <= 0 {
			slowest = 32
		}
		s.ring = trace.NewRing(recent, slowest)
	}
	s.mux.HandleFunc("/v1/fold", s.serve("fold", s.handleFold))
	s.mux.HandleFunc("/v1/batch", s.serve("batch", s.handleBatch))
	s.mux.HandleFunc("/v1/scan", s.serve("scan", s.handleScan))
	s.mux.HandleFunc("/v1/cache", s.handleCache)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics/prom", s.handleProm)
	s.mux.HandleFunc("/debug/requests", s.handleRequests)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// serve wraps a /v1 handler with request accounting (every serving request
// is counted exactly once into the status-class counters the load harness
// reconciles against its own client-side tallies), per-request tracing
// (when armed: honor or mint X-Request-ID, thread a trace through the
// request context, record it into the debug ring on completion), and the
// access log. With tracing off and no logger, the wrapper is the seed's
// counter bump and nothing else.
func (s *server) serve(op string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inFlight.Add(1)
		var tr *trace.Trace
		var start time.Time
		if s.ring != nil {
			id := r.Header.Get("X-Request-ID")
			if id == "" {
				id = trace.NewID()
			}
			// Echo before the handler runs so even error paths that write
			// headers directly (499) carry the correlation ID.
			w.Header().Set("X-Request-ID", id)
			tr = trace.New(id, op)
			r = r.WithContext(trace.NewContext(r.Context(), tr))
		} else if s.logger != nil {
			start = time.Now()
		}
		code := h(w, r)
		s.inFlight.Add(-1)
		if tr != nil {
			tr.Finish(code)
			snap := tr.Snapshot()
			s.ring.Record(snap)
			if s.logger != nil {
				s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
					slog.String("request_id", snap.ID),
					slog.String("op", op),
					slog.String("name", snap.Name),
					slog.Int("status", code),
					slog.Float64("dur_ms", float64(snap.TotalNanos)/1e6),
				)
			}
		} else if s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("op", op),
				slog.Int("status", code),
				slog.Float64("dur_ms", float64(time.Since(start))/1e6),
			)
		}
		switch {
		case code >= 200 && code < 300:
			s.ok2xx.Add(1)
		case code == http.StatusTooManyRequests:
			s.shed.Add(1)
		case code == statusClientClosed:
			s.disconnects.Add(1)
		case code == http.StatusServiceUnavailable:
			s.unavailable.Add(1)
		case code == http.StatusGatewayTimeout:
			s.timeouts.Add(1)
		case code >= 500:
			s.failed.Add(1)
		default:
			s.badReq.Add(1)
		}
	}
}

// requestContext maps the wire deadline onto the fold context: the
// client's disconnect already cancels r.Context(); timeout_ms (clamped to
// MaxTimeout) or the server default adds the deadline the pipeline's
// cooperative checks honor.
func (s *server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// errorJSON is the error body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// foldJSON is the /v1/fold and /v1/scan request body (scan reads W1/W2).
type foldJSON struct {
	// Name is a client-side correlation label (trace replay, logs); the
	// server copies it onto the request trace so /debug/requests and the
	// access log can be joined back to replay entries.
	Name      string `json:"name"`
	Seq1      string `json:"seq1"`
	Seq2      string `json:"seq2"`
	TimeoutMs int64  `json:"timeout_ms"`
	Structure bool   `json:"structure"`
	W1        int    `json:"w1"`
	W2        int    `json:"w2"`
	// Algebra selects the evaluation semiring per request: "" or "maxplus"
	// for the BPMax score, "partition" for the BPPart log-partition
	// function (the response then carries logz/logz1/logz2). KT is the
	// Boltzmann temperature factor for partition requests (0 = 1.0).
	Algebra string  `json:"algebra"`
	KT      float64 `json:"kt"`
}

// algebraOptions maps a request's algebra/kt fields to fold options; empty
// fields add nothing, so the common max-plus request keeps the session's
// pre-parsed option set.
func algebraOptions(algebra string, kt float64) []bpmax.Option {
	var extra []bpmax.Option
	if algebra != "" {
		extra = append(extra, bpmax.WithAlgebra(bpmax.Algebra(algebra)))
	}
	if kt != 0 {
		extra = append(extra, bpmax.WithKT(kt))
	}
	return extra
}

// structureJSON is the optional traceback section of a fold response.
type structureJSON struct {
	Bracket1 string `json:"bracket1"`
	Bracket2 string `json:"bracket2"`
	Intra1   int    `json:"intra1_pairs"`
	Intra2   int    `json:"intra2_pairs"`
	Inter    int    `json:"inter_bonds"`
}

// foldResponse is the /v1/fold response body. The logz fields are pointers
// so a legitimate 0 (a one-base ensemble) still serializes while max-plus
// responses stay byte-identical to the pre-partition wire format.
type foldResponse struct {
	Score       float32        `json:"score"`
	N1          int            `json:"n1"`
	N2          int            `json:"n2"`
	ElapsedNs   int64          `json:"elapsed_ns"`
	Degradation string         `json:"degradation"`
	Algebra     string         `json:"algebra,omitempty"`
	LogZ        *float64       `json:"logz,omitempty"`
	LogZ1       *float64       `json:"logz1,omitempty"`
	LogZ2       *float64       `json:"logz2,omitempty"`
	KT          float64        `json:"kt,omitempty"`
	Structure   *structureJSON `json:"structure,omitempty"`
	Window      *scanResponse  `json:"window,omitempty"`
}

// scanResponse is the /v1/scan response body (and the window section of a
// degraded fold).
type scanResponse struct {
	Best      float32 `json:"best"`
	I1        int     `json:"i1"`
	J1        int     `json:"j1"`
	I2        int     `json:"i2"`
	J2        int     `json:"j2"`
	ElapsedNs int64   `json:"elapsed_ns"`
}

func (s *server) handleFold(w http.ResponseWriter, r *http.Request) int {
	var req foldJSON
	if code := s.decode(w, r, &req); code != 0 {
		return code
	}
	tr := trace.FromContext(r.Context())
	tr.SetName(req.Name)
	if req.Algebra == string(bpmax.AlgebraPartition) && req.Structure {
		return s.writeJSON(w, r, http.StatusBadRequest, errorJSON{
			Error: "structure is undefined for algebra=partition (the ensemble has no single optimal structure)",
			Kind:  "invalid_request",
		})
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	res, err := s.session.FoldWith(ctx, req.Seq1, req.Seq2, algebraOptions(req.Algebra, req.KT)...)
	if err != nil {
		return s.writeError(w, r, err)
	}
	out := foldResponse{
		Score:       res.Score,
		N1:          res.N1,
		N2:          res.N2,
		ElapsedNs:   int64(res.Elapsed),
		Degradation: res.Degradation.String(),
	}
	if res.Algebra == bpmax.AlgebraPartition {
		out.Algebra = string(res.Algebra)
		lz, l1, l2 := res.LogZ, res.LogZ1, res.LogZ2
		out.LogZ, out.LogZ1, out.LogZ2 = &lz, &l1, &l2
		out.KT = res.KT
	}
	if res.Degradation == bpmax.DegradeWindowed {
		out.Window = &scanResponse{
			Best: res.Window.Best,
			I1:   res.Window.I1, J1: res.Window.J1,
			I2: res.Window.I2, J2: res.Window.J2,
			ElapsedNs: int64(res.Window.Elapsed),
		}
	} else if req.Structure {
		ts := tr.Begin()
		st := res.Structure()
		tr.End(trace.StageTraceback, ts)
		out.Structure = &structureJSON{
			Bracket1: st.Bracket1,
			Bracket2: st.Bracket2,
			Intra1:   len(st.Intra1),
			Intra2:   len(st.Intra2),
			Inter:    len(st.Inter),
		}
	}
	return s.writeJSON(w, r, http.StatusOK, out)
}

func (s *server) handleScan(w http.ResponseWriter, r *http.Request) int {
	var req foldJSON
	if code := s.decode(w, r, &req); code != 0 {
		return code
	}
	trace.FromContext(r.Context()).SetName(req.Name)
	if req.Algebra != "" && req.Algebra != string(bpmax.AlgebraMaxPlus) {
		return s.writeJSON(w, r, http.StatusBadRequest, errorJSON{
			Error: "windowed scans are max-plus only; algebra=" + req.Algebra + " has no banded form",
			Kind:  "invalid_request",
		})
	}
	w1, w2 := req.W1, req.W2
	if w1 <= 0 {
		w1 = s.cfg.ScanWindow
	}
	if w2 <= 0 {
		w2 = w1
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	res, err := s.session.ScanWindowed(ctx, req.Seq1, req.Seq2, w1, w2)
	if err != nil {
		return s.writeError(w, r, err)
	}
	return s.writeJSON(w, r, http.StatusOK, scanResponse{
		Best: res.Best,
		I1:   res.I1, J1: res.J1, I2: res.I2, J2: res.J2,
		ElapsedNs: int64(res.Elapsed),
	})
}

// batchJSON is the /v1/batch request body. Algebra/KT apply to every item
// of the batch (a screen runs one statistic across all pairs).
type batchJSON struct {
	Items []struct {
		Name string `json:"name"`
		Seq1 string `json:"seq1"`
		Seq2 string `json:"seq2"`
	} `json:"items"`
	TimeoutMs int64   `json:"timeout_ms"`
	Algebra   string  `json:"algebra"`
	KT        float64 `json:"kt"`
}

// batchItemResponse is one item of the /v1/batch response; failed items
// carry Error and zero scores. Partition batches report logz per item and
// Gain in the log domain (log Z_12 − log Z_1 − log Z_2).
type batchItemResponse struct {
	Name        string   `json:"name"`
	Score       float32  `json:"score"`
	LogZ        *float64 `json:"logz,omitempty"`
	Gain        float32  `json:"gain"`
	Degradation string   `json:"degradation"`
	Error       string   `json:"error,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req batchJSON
	if code := s.decode(w, r, &req); code != 0 {
		return code
	}
	if len(req.Items) == 0 {
		return s.writeJSON(w, r, http.StatusBadRequest, errorJSON{Error: "batch has no items", Kind: "invalid_request"})
	}
	items := make([]bpmax.BatchItem, len(req.Items))
	for i, it := range req.Items {
		name := it.Name
		if name == "" {
			name = fmt.Sprintf("item-%d", i)
		}
		items[i] = bpmax.BatchItem{Name: name, Seq1: it.Seq1, Seq2: it.Seq2}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	results := s.session.FoldBatchWith(ctx, items, s.cfg.BatchWorkers, algebraOptions(req.Algebra, req.KT)...)
	out := struct {
		Results []batchItemResponse `json:"results"`
		Failed  int                 `json:"failed"`
	}{Results: make([]batchItemResponse, len(results))}
	closed := 0
	for i, br := range results {
		item := batchItemResponse{Name: br.Name, Degradation: br.Degradation.String()}
		if br.Err != nil {
			item.Error = br.Err.Error()
			out.Failed++
			if errors.Is(br.Err, bpmax.ErrSessionClosed) {
				closed++
			}
		} else {
			item.Score = br.Result.Score
			item.Gain = br.Gain
			if br.Result.Algebra == bpmax.AlgebraPartition {
				lz := br.Result.LogZ
				item.LogZ = &lz
			}
		}
		out.Results[i] = item
	}
	// A batch whose every item failed because the session is closed is the
	// drain refusing the whole request, not a partial result.
	if closed == len(results) {
		return s.writeError(w, r, bpmax.ErrSessionClosed)
	}
	return s.writeJSON(w, r, http.StatusOK, out)
}

// handleCache is the cache-introspection endpoint: the configured cache's
// stats, or 404 when the server runs uncached.
func (s *server) handleCache(w http.ResponseWriter, r *http.Request) {
	cs := s.session.Stats().Cache
	if cs == nil {
		s.writeJSON(w, r, http.StatusNotFound, errorJSON{Error: "no cache configured (-cache)", Kind: "no_cache"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, cs)
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once the drain began.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the full observability document: cumulative totals
// of the fills that ran, component stats, and the HTTP layer's own request
// accounting.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, s.snapshot())
}

// handleProm serves the same document as /metrics in Prometheus text
// exposition format, for scrapers that do not speak the JSON shape.
func (s *server) handleProm(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WriteProm(w, &snap)
}

// handleRequests serves the trace ring: the most recent and slowest
// requests with their per-stage breakdowns. 404 with a machine-readable
// kind when the server runs untraced, so probes can tell "off" from
// "empty".
func (s *server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		s.writeJSON(w, r, http.StatusNotFound, errorJSON{Error: "request tracing disabled (-trace-requests=false)", Kind: "tracing_disabled"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.ring.Snapshot())
}

// snapshot is the /metrics document: the session's (fold totals, engine,
// pool, cache, admission gate, armed failpoints) plus the two sections only
// this process knows.
func (s *server) snapshot() bpmax.MetricsSnapshot {
	snap := s.session.Stats()
	sst := s.serverStats()
	snap.Server = &sst
	rt := bpmax.ReadRuntimeStats()
	snap.Runtime = &rt
	return snap
}

// serverStats snapshots the HTTP layer's counters.
func (s *server) serverStats() bpmax.ServerStats {
	return bpmax.ServerStats{
		Requests:    s.requests.Load(),
		InFlight:    s.inFlight.Load(),
		OK:          s.ok2xx.Load(),
		BadRequest:  s.badReq.Load(),
		Shed:        s.shed.Load(),
		Unavailable: s.unavailable.Load(),
		Timeouts:    s.timeouts.Load(),
		Failed:      s.failed.Load(),
		Disconnects: s.disconnects.Load(),
		Draining:    s.draining.Load(),
	}
}

// decode parses a POST JSON body; a non-zero return is the status already
// written (method and body errors). The read+parse is the trace's "decode"
// stage — it includes the wire time of a body still in flight.
func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return s.writeJSON(w, r, http.StatusMethodNotAllowed, errorJSON{Error: "POST only", Kind: "method"})
	}
	tr := trace.FromContext(r.Context())
	ds := tr.Begin()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	tr.End(trace.StageDecode, ds)
	if err != nil {
		return s.writeJSON(w, r, http.StatusBadRequest, errorJSON{Error: "bad request body: " + err.Error(), Kind: "invalid_request"})
	}
	return 0
}

// writeError maps a pipeline error onto the wire contract — 429 +
// Retry-After for shed load, 503 for the drain, 504 for expired deadlines,
// 499 accounting for vanished clients, 413 for over-budget folds, 500 for
// isolated solver failures, 400 for input the solver rejected — and writes
// the JSON error body.
func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) int {
	var ae *bpmax.AdmissionError
	var mle *bpmax.MemoryLimitError
	switch {
	case errors.Is(err, bpmax.ErrSessionClosed):
		w.Header().Set("Connection", "close")
		return s.writeJSON(w, r, http.StatusServiceUnavailable, errorJSON{Error: err.Error(), Kind: "draining"})
	case errors.Is(err, bpmax.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		return s.writeJSON(w, r, http.StatusTooManyRequests, errorJSON{Error: err.Error(), Kind: "queue_full"})
	case errors.As(err, &ae), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Admission expiries unwrap to the context error; either way the
		// question is whose clock ran out: the request's deadline (504) or
		// the client's patience (disconnect, 499 — nobody reads the body).
		if errors.Is(err, context.DeadlineExceeded) {
			return s.writeJSON(w, r, http.StatusGatewayTimeout, errorJSON{Error: err.Error(), Kind: "deadline"})
		}
		w.WriteHeader(statusClientClosed)
		return statusClientClosed
	case errors.As(err, &mle):
		return s.writeJSON(w, r, http.StatusRequestEntityTooLarge, errorJSON{Error: err.Error(), Kind: "memory_limit"})
	case bpmax.IsTransient(err):
		return s.writeJSON(w, r, http.StatusInternalServerError, errorJSON{Error: err.Error(), Kind: "transient"})
	default:
		// What remains is input the pipeline rejected (invalid bases,
		// malformed windows): the caller's to fix.
		return s.writeJSON(w, r, http.StatusBadRequest, errorJSON{Error: err.Error(), Kind: "invalid_request"})
	}
}

// retryAfter derives the 429 Retry-After hint from the admission gate's
// live occupancy: queue depth over concurrency estimates how many "turns"
// a retry would wait, scaled by the gate's observed mean wait (floored at
// one second so clients never busy-loop).
func (s *server) retryAfter() int {
	st := s.session.Stats().Admission
	if st == nil {
		return 1
	}
	turns := float64(st.QueueDepth+1) / float64(st.MaxConcurrent)
	meanWait := time.Second
	if st.Admitted > 0 {
		if w := time.Duration(st.WaitNanosTotal / st.Admitted); w > meanWait {
			meanWait = w
		}
	}
	secs := int(turns * meanWait.Seconds())
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeJSON writes one JSON response and returns the status for the
// accounting wrapper. When the request carries a trace, the response gets a
// Server-Timing header with the per-stage breakdown (stamped before
// WriteHeader — which is why the encode stage itself is in the trace ring
// but never in the header), and the body encode is recorded as the
// "encode" stage.
func (s *server) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) int {
	tr := trace.FromContext(r.Context())
	if st := tr.ServerTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	es := tr.Begin()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client may be gone; accounting already has the code
	tr.End(trace.StageEncode, es)
	return code
}
