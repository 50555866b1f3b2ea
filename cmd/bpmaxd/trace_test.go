package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bpmax-go/bpmax/internal/cliflags"
	"github.com/bpmax-go/bpmax/internal/trace"
)

// tracedConfig is the serverConfig the tracing tests run under.
func tracedConfig() serverConfig {
	return serverConfig{TraceRequests: true, TraceRing: 8, TraceSlowest: 4}
}

func TestRequestIDEchoAndMint(t *testing.T) {
	s := newTestServer(t, nil, tracedConfig())
	blob, _ := json.Marshal(map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
	req := httptest.NewRequest(http.MethodPost, "/v1/fold", bytes.NewReader(blob))
	req.Header.Set("X-Request-ID", "client-chose-this")
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "client-chose-this" {
		t.Errorf("client request ID not honored: %q", got)
	}
	rec = post(s, "/v1/fold", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
	if id := rec.Header().Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("minted request ID %q, want 16 hex chars", id)
	}
}

func TestServerTimingAndDebugRequests(t *testing.T) {
	s := newTestServer(t, nil, tracedConfig())
	rec := post(s, "/v1/fold", map[string]any{
		"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC", "name": "replay-7", "structure": true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	st := rec.Header().Get("Server-Timing")
	if !strings.Contains(st, "total;dur=") {
		t.Errorf("Server-Timing missing total entry: %q", st)
	}
	for _, want := range []string{"queue", "substrate", "accumulate", "finalize"} {
		if workloadStages(st)[want] == "" {
			t.Errorf("Server-Timing missing spine stage %s: %q", want, st)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/requests", nil)
	drec := httptest.NewRecorder()
	s.mux.ServeHTTP(drec, req)
	if drec.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d", drec.Code)
	}
	var ring trace.RingSnapshot
	if err := json.Unmarshal(drec.Body.Bytes(), &ring); err != nil {
		t.Fatal(err)
	}
	if ring.Total != 1 || len(ring.Recent) != 1 || len(ring.Slowest) != 1 {
		t.Fatalf("ring = %+v", ring)
	}
	snap := ring.Recent[0]
	if snap.Op != "fold" || snap.Name != "replay-7" || snap.Status != http.StatusOK {
		t.Errorf("trace identity: %+v", snap)
	}
	if snap.ID != rec.Header().Get("X-Request-ID") {
		t.Errorf("ring trace %q does not match response header %q", snap.ID, rec.Header().Get("X-Request-ID"))
	}
	busy := map[string]int64{}
	for _, sg := range snap.Stages {
		busy[sg.Stage] = sg.BusyNanos
	}
	for _, want := range []string{"decode", "queue", "substrate", "accumulate", "finalize", "traceback", "encode"} {
		if busy[want] <= 0 {
			t.Errorf("stage %q missing from trace: %v", want, snap.Stages)
		}
	}
	// One fill ran, so the aggregate's phases are that fold's FoldMetrics:
	// the trace's fill stages are read from the same record, to the nanosecond.
	phases := s.session.Stats().Phases
	for _, fill := range []string{"accumulate", "finalize"} {
		if busy[fill] != phases[fill].Nanos {
			t.Errorf("trace stage %s busy %dns, FoldMetrics phase %dns; want equal", fill, busy[fill], phases[fill].Nanos)
		}
	}
}

// workloadStages parses Server-Timing entries into name → dur text (the
// full parse lives in internal/workload; here presence is enough).
func workloadStages(h string) map[string]string {
	out := map[string]string{}
	for _, e := range strings.Split(h, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(e), ";")
		if ok {
			out[name] = rest
		}
	}
	return out
}

func TestDebugRequestsDisabled(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	req := httptest.NewRequest(http.MethodGet, "/debug/requests", nil)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("untraced /debug/requests: %d", rec.Code)
	}
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "tracing_disabled" {
		t.Errorf("body %s (err %v), want kind tracing_disabled", rec.Body, err)
	}
	// And the untraced response carries neither tracing header.
	frec := post(s, "/v1/fold", map[string]any{"seq1": "GGG", "seq2": "CCC"})
	if frec.Header().Get("X-Request-ID") != "" || frec.Header().Get("Server-Timing") != "" {
		t.Errorf("untraced server stamped tracing headers: %v", frec.Header())
	}
}

func TestPromAndRuntimeMetrics(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	post(s, "/v1/fold", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
	req := httptest.NewRequest(http.MethodGet, "/metrics/prom", nil)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/prom: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"bpmax_server_requests_total 1",
		"bpmax_go_goroutines",
		"bpmax_go_gc_pause_nanos_total",
		"# TYPE bpmax_server_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	// The JSON document carries the same runtime section.
	snap := s.snapshot()
	if snap.Runtime == nil || snap.Runtime.Goroutines <= 0 {
		t.Errorf("snapshot runtime health missing: %+v", snap.Runtime)
	}
}

// TestMidFillDisconnectTraced cancels the client mid-fill over a real
// connection and checks the trace still lands in the ring, complete and
// status-499, with every recorded stage inside the request's extent. A delay
// failpoint on every loop iteration of the fill holds the fold inside it —
// thousands of iterations, each checking the request's context — and the
// client leaves once the first has fired, so the fold is mid-fill when the
// client goes however fast or slow the host is.
func TestMidFillDisconnectTraced(t *testing.T) {
	s := newTestServer(t, func(f *cliflags.Serving) {
		f.Failpoints = "engine-iter=delay(5ms)"
	}, tracedConfig())
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s1, s2 := slowSeq()
	blob, _ := json.Marshal(map[string]any{"seq1": s1, "seq2": s2, "name": "walkaway"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/fold", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	for fs := s.session.Stats().Faults; fs == nil || fs.Injected == 0; fs = s.session.Stats().Faults {
		select {
		case err := <-done:
			t.Fatalf("the request ended before its fill began (error %v)", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the fold answered a client that had left")
	}
	// The handler unwinds asynchronously after the disconnect, within one
	// held iteration; wait for the trace to be recorded.
	deadline := time.Now().Add(30 * time.Second)
	var ring *trace.Ring = s.ring
	for {
		rs := ring.Snapshot()
		if rs.Total >= 1 {
			snap := rs.Recent[len(rs.Recent)-1]
			if snap.Status != statusClientClosed {
				t.Fatalf("disconnect recorded status %d, want %d: %+v", snap.Status, statusClientClosed, snap)
			}
			if snap.Name != "walkaway" {
				t.Errorf("trace name = %q", snap.Name)
			}
			for _, sg := range snap.Stages {
				if sg.LastNanos > snap.TotalNanos {
					t.Errorf("stage %s recorded past Finish: %+v", sg.Stage, sg)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnected request never reached the trace ring")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAccessLogCorrelation(t *testing.T) {
	var buf bytes.Buffer
	cfg := tracedConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&syncWriter{w: &buf}, nil))
	s := newTestServer(t, nil, cfg)
	rec := post(s, "/v1/fold", map[string]any{"seq1": "GGG", "seq2": "CCC", "name": "corr-1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	id := rec.Header().Get("X-Request-ID")
	var entry struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Op        string  `json:"op"`
		Name      string  `json:"name"`
		Status    int     `json:"status"`
		DurMs     float64 `json:"dur_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log not one JSON record: %q (%v)", buf.String(), err)
	}
	if entry.Msg != "request" || entry.RequestID != id || entry.Op != "fold" ||
		entry.Name != "corr-1" || entry.Status != 200 || entry.DurMs <= 0 {
		t.Errorf("access record %+v does not correlate with response (id %q)", entry, id)
	}
}

// syncWriter serializes concurrent slog writes in tests.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestRunTraceOut boots the full binary loop with -trace-out and checks
// the drain leaves a loadable Chrome trace-event file behind.
func TestRunTraceOut(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "chrome.json")
	addr, drain := bootRun(t, "-trace-out", tracePath, "-log-format", "json")
	postWire(t, "http://"+addr+"/v1/fold", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
	drain()
	out, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &file); err != nil {
		t.Fatalf("-trace-out not valid trace-event JSON: %v", err)
	}
	named := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if name, ok := ev["name"].(string); ok && ev["ph"] == "X" {
			named[name] = true
		}
	}
	for _, want := range []string{"substrate", "accumulate", "finalize"} {
		if !named[want] {
			t.Errorf("-trace-out has no %s span: %v", want, named)
		}
	}
}
