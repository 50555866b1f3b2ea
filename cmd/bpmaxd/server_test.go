package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/cliflags"
)

// newTestServer builds a server over a fresh session; adjust flags via
// mut. Cleanup closes the session and components.
func newTestServer(t *testing.T, mut func(*cliflags.Serving), cfg serverConfig) *server {
	t.Helper()
	f := cliflags.NewServing()
	if mut != nil {
		mut(f)
	}
	comps, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	session, err := bpmax.NewSession(append(comps.Options, bpmax.WithMetrics(bpmax.NewMetrics()))...)
	if err != nil {
		comps.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { session.Close(); comps.Close() })
	return newServer(session, cfg)
}

// post sends one JSON request through the handler table.
func post(s *server, path string, body any) *httptest.ResponseRecorder {
	blob, _ := json.Marshal(body)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	return rec
}

// slowSeq is a strand pair whose fold takes a few milliseconds, longer than
// a millisecond deadline. A test that must hold a request longer (an
// occupied admission slot, a client that leaves mid-fill) arms a delay
// failpoint instead of relying on the fold's speed.
func slowSeq() (string, string) {
	rng := rand.New(rand.NewSource(11))
	mk := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGU"[rng.Intn(4)]
		}
		return string(b)
	}
	return mk(16), mk(64)
}

func TestFoldEndpoint(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	rec := post(s, "/v1/fold", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC", "structure": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out foldResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Score <= 0 || out.N1 != 9 || out.N2 != 9 || out.Degradation != "none" {
		t.Errorf("response %+v", out)
	}
	if out.Structure == nil || len(out.Structure.Bracket1) != 9 {
		t.Errorf("structure missing: %+v", out.Structure)
	}
	// Identical fold through the library must agree (the HTTP layer adds
	// nothing to the math).
	ref, err := bpmax.Fold("GGGAAACCC", "GGGUUUCCC")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Score != out.Score {
		t.Errorf("HTTP score %g != library score %g", out.Score, ref.Score)
	}
}

func TestScanEndpoint(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{ScanWindow: 4})
	rec := post(s, "/v1/scan", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Best <= 0 {
		t.Errorf("scan best = %g", out.Best)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	rec := post(s, "/v1/batch", map[string]any{"items": []map[string]string{
		{"name": "good", "seq1": "GGGG", "seq2": "CCCC"},
		{"seq1": "GGX", "seq2": "CCC"}, // invalid base: fails per-item
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Results []batchItemResponse `json:"results"`
		Failed  int                 `json:"failed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Failed != 1 {
		t.Fatalf("results %+v", out)
	}
	if out.Results[0].Score <= 0 || out.Results[0].Error != "" {
		t.Errorf("good item: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Errorf("bad item passed: %+v", out.Results[1])
	}
}

// TestBadRequests table-drives the 400/405 surface.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{MaxBody: 256})
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"malformed json", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/v1/fold", strings.NewReader("{not json"))
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, req)
			return rec
		}, http.StatusBadRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			return post(s, "/v1/fold", map[string]any{"seq1": "G", "seq2": "C", "sequence3": "A"})
		}, http.StatusBadRequest},
		{"GET fold", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, "/v1/fold", nil)
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, req)
			return rec
		}, http.StatusMethodNotAllowed},
		{"invalid base", func() *httptest.ResponseRecorder {
			return post(s, "/v1/fold", map[string]any{"seq1": "GGX", "seq2": "CCC"})
		}, http.StatusBadRequest},
		{"empty batch", func() *httptest.ResponseRecorder {
			return post(s, "/v1/batch", map[string]any{"items": []map[string]string{}})
		}, http.StatusBadRequest},
		{"oversize body", func() *httptest.ResponseRecorder {
			return post(s, "/v1/fold", map[string]any{"seq1": strings.Repeat("A", 500), "seq2": "C"})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := tc.do()
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	if st := s.serverStats(); st.BadRequest != int64(len(cases)) {
		t.Errorf("bad_request count = %d, want %d", st.BadRequest, len(cases))
	}
}

// TestDeadlineMapsToContext proves timeout_ms becomes the fold's context
// deadline: a fold that needs tens of milliseconds dies at 1ms with 504.
func TestDeadlineMapsToContext(t *testing.T) {
	// The substrate failpoint sleeps past the 1 ms deadline once the shell
	// exists, so the fold meets it however fast the host fills.
	s := newTestServer(t, func(f *cliflags.Serving) { f.Failpoints = "substrate=once*delay(20ms)" }, serverConfig{})
	s1, s2 := slowSeq()
	rec := post(s, "/v1/fold", map[string]any{"seq1": s1, "seq2": s2, "timeout_ms": 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body)
	}
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "deadline" {
		t.Errorf("kind %q, want deadline", e.Kind)
	}
	if st := s.serverStats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestMaxTimeoutCapsRequest proves -max-timeout clamps greedy deadlines. As
// in TestDeadlineMapsToContext, the substrate failpoint sleeps past the 1 ms
// cap, so the fold meets it however fast the host fills.
func TestMaxTimeoutCapsRequest(t *testing.T) {
	s := newTestServer(t, func(f *cliflags.Serving) { f.Failpoints = "substrate=once*delay(20ms)" }, serverConfig{MaxTimeout: time.Millisecond})
	s1, s2 := slowSeq()
	rec := post(s, "/v1/fold", map[string]any{"seq1": s1, "seq2": s2, "timeout_ms": 60000})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 under the 1ms cap (%s)", rec.Code, rec.Body)
	}
}

// TestQueueFull429 fills a 1-slot/1-deep admission gate and asserts the
// third request sheds with 429 and a Retry-After hint. The first grant is
// held by a delay failpoint, not by a slow fold, so the slot stays occupied
// however fast the fill runs.
func TestQueueFull429(t *testing.T) {
	s := newTestServer(t, func(f *cliflags.Serving) {
		f.Admit, f.AdmitQueue = 1, 1
		f.Failpoints = "admission-grant=once*delay(250ms)"
	}, serverConfig{})
	s1, s2 := slowSeq()
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(s, "/v1/fold", map[string]any{"seq1": s1, "seq2": s2}).Code
		}(i)
		// Wait until this request occupies its slot (i=0) or the queue
		// (i=1) before firing the next, so the fill order is exact.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := s.session.Stats().Admission
			if (i == 0 && st.Running == 1) || (i == 1 && st.QueueDepth == 1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission never reached state %d: %+v", i, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rec := post(s, "/v1/fold", map[string]any{"seq1": "GGG", "seq2": "CCC"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "queue_full" {
		t.Errorf("kind %q, want queue_full", e.Kind)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d finished %d, want 200", i, c)
		}
	}
	if st := s.serverStats(); st.Shed != 1 || st.OK != 2 {
		t.Errorf("accounting: %+v", st)
	}
}

// TestClosedSession503 proves every endpoint answers 503 once the session
// is closed.
func TestClosedSession503(t *testing.T) {
	f := cliflags.NewServing()
	comps, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer comps.Close()
	session, err := bpmax.NewSession(comps.Options...)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(session, serverConfig{})
	session.Close()
	for _, path := range []string{"/v1/fold", "/v1/scan", "/v1/batch"} {
		body := map[string]any{"seq1": "GGG", "seq2": "CCC"}
		if path == "/v1/batch" {
			body = map[string]any{"items": []map[string]string{{"seq1": "GGG", "seq2": "CCC"}}}
		}
		rec := post(s, path, body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503 (%s)", path, rec.Code, rec.Body)
		}
	}
	if st := s.serverStats(); st.Unavailable != 3 {
		t.Errorf("unavailable = %d, want 3", st.Unavailable)
	}
}

// TestClientDisconnect proves a vanished client is accounted as a
// disconnect, not an error.
func TestClientDisconnect(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	blob, _ := json.Marshal(map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
	req := httptest.NewRequest(http.MethodPost, "/v1/fold", bytes.NewReader(blob)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != statusClientClosed {
		t.Fatalf("status %d, want %d", rec.Code, statusClientClosed)
	}
	if st := s.serverStats(); st.Disconnects != 1 {
		t.Errorf("disconnects = %d, want 1", st.Disconnects)
	}
}

// TestMemoryLimit413 proves an over-budget fold maps to 413.
func TestMemoryLimit413(t *testing.T) {
	s := newTestServer(t, func(f *cliflags.Serving) { f.MemLimit = "1KB" }, serverConfig{})
	s1, s2 := slowSeq()
	rec := post(s, "/v1/fold", map[string]any{"seq1": s1, "seq2": s2})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", rec.Code, rec.Body)
	}
}

func TestCacheEndpoint(t *testing.T) {
	// No cache: 404.
	s := newTestServer(t, nil, serverConfig{})
	req := httptest.NewRequest(http.MethodGet, "/v1/cache", nil)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("uncached /v1/cache: status %d, want 404", rec.Code)
	}
	// With a cache: stats reflect served folds.
	s2srv := newTestServer(t, func(f *cliflags.Serving) { f.Cache = "0" }, serverConfig{})
	for i := 0; i < 2; i++ {
		if rec := post(s2srv, "/v1/fold", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"}); rec.Code != 200 {
			t.Fatalf("fold %d: %d", i, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	s2srv.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cache", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/cache: status %d", rec.Code)
	}
	var cs bpmax.CacheStats
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.ResultHits == 0 {
		t.Errorf("repeated fold produced no result hit: %+v", cs)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	s := newTestServer(t, func(f *cliflags.Serving) { f.Admit = 2 }, serverConfig{})
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz: %d", rec.Code)
	}
	post(s, "/v1/fold", map[string]any{"seq1": "GGG", "seq2": "CCC"})
	rec = httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap bpmax.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Server == nil || snap.Server.Requests != 1 || snap.Server.OK != 1 {
		t.Errorf("server section: %+v", snap.Server)
	}
	if snap.Admission == nil || snap.Admission.Admitted != 1 {
		t.Errorf("admission section: %+v", snap.Admission)
	}
	// Health flips to 503 when draining.
	s.draining.Store(true)
	rec = httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", rec.Code)
	}
}

func TestPprofWired(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline: %d", rec.Code)
	}
}

// TestConcurrentRequestsDuringShutdown hammers the server from many
// goroutines while the graceful drain runs underneath (run with -race).
// Every response must be a clean 200 or 503 — never a dropped request or
// an inconsistent ledger.
func TestConcurrentRequestsDuringShutdown(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	bad := make(chan string, clients*64)
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				blob, _ := json.Marshal(map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"})
				resp, err := http.Post(ts.URL+"/v1/fold", "application/json", bytes.NewReader(blob))
				if err != nil {
					bad <- fmt.Sprintf("client %d: transport: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					bad <- fmt.Sprintf("client %d: status %d", c, resp.StatusCode)
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let traffic build
	s.draining.Store(true)
	if err := s.session.Shutdown(context.Background()); err != nil {
		t.Errorf("session shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	st := s.serverStats()
	if st.InFlight != 0 {
		t.Errorf("in-flight after drain = %d", st.InFlight)
	}
	if st.Requests != st.OK+st.Unavailable+st.BadRequest+st.Shed+st.Timeouts+st.Failed+st.Disconnects {
		t.Errorf("ledger does not balance: %+v", st)
	}
	if st.OK == 0 {
		t.Error("no request completed before the drain")
	}
}

// bootRun boots the real binary loop — listener, signals aside — with the
// given flags on a free port and returns its address. drain cancels the
// context (the SIGTERM equivalent) and fails the test unless run exits
// cleanly.
func bootRun(t *testing.T, args ...string) (addr string, drain func()) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...), os.Stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if blob, err := os.ReadFile(addrFile); err == nil && len(blob) > 0 {
			addr = strings.TrimSpace(string(blob))
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not drain")
		}
	}
}

// postWire sends one JSON request over a real connection and returns the
// status, draining the body.
func postWire(t *testing.T, url string, body any) int {
	t.Helper()
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRunEndToEnd exercises the binary loop's serve and drain paths through
// ctx cancellation.
func TestRunEndToEnd(t *testing.T) {
	addr, drain := bootRun(t, "-cache", "64MB", "-admit", "4", "-admit-queue", "16")
	if code := postWire(t, "http://"+addr+"/v1/fold", map[string]any{"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC"}); code != http.StatusOK {
		t.Fatalf("fold over the wire: %d", code)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	drain()
}

// TestRunRefusesBadServingOptions: a schedule name no fold could run with
// (refused by NewSession) or the retired -substrate flag (refused by the flag
// parser) is a boot failure, before the listener exists — not a healthy
// server that answers every request with 400.
func TestRunRefusesBadServingOptions(t *testing.T) {
	for _, args := range [][]string{{"-variant", "bogus"}, {"-substrate", "4r"}} {
		addrFile := filepath.Join(t.TempDir(), "addr")
		// A server that did boot would serve until the deadline and drain
		// with a nil error.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...), os.Stderr)
		cancel()
		if err == nil {
			t.Errorf("run %v: served instead of refusing to start", args)
		}
		if _, statErr := os.Stat(addrFile); statErr == nil {
			t.Errorf("run %v: listened before failing (%v)", args, err)
		}
	}
}

// TestDefaultFlagsCountFillsAndHits: under the default flags plus -cache an
// operator gets both the cache and the fold counters. Three identical folds
// are one fill and two result hits in /metrics and /metrics/prom, with the
// fill's phases and histogram entry; the engine and pool the session owns
// report their sections; a partition fold whose kT leaves the scaled domain
// moves the guard-fallback alarm — no flag armed any of it.
func TestDefaultFlagsCountFillsAndHits(t *testing.T) {
	addr, drain := bootRun(t, "-cache", "64MB")
	defer drain()
	base := "http://" + addr
	for i := 0; i < 3; i++ {
		if code := postWire(t, base+"/v1/fold", map[string]any{"seq1": "GGGAAACCCUUUGGG", "seq2": "CCCAAAGGGUUUCCC"}); code != http.StatusOK {
			t.Fatalf("fold %d: status %d", i, code)
		}
	}
	metricsDoc := func() bpmax.MetricsSnapshot {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap bpmax.MetricsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := metricsDoc()
	if snap.Folds != 1 || snap.Cache == nil || snap.Cache.ResultHits != 2 {
		t.Errorf("folds = %d, cache = %+v; want 1 fill and 2 result hits", snap.Folds, snap.Cache)
	}
	if snap.FoldNanos.Count != 1 {
		t.Errorf("fold_nanos.count = %d, want 1", snap.FoldNanos.Count)
	}
	for _, phase := range []string{"substrate", "accumulate", "finalize"} {
		if st := snap.Phases[phase]; st.Nanos <= 0 || st.Units <= 0 {
			t.Errorf("phases[%s] = %+v, want the fill's record", phase, st)
		}
	}
	resp, err := http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if snap.Engine == nil || snap.Engine.Width < 1 || snap.Pool == nil {
		t.Errorf("engine = %+v, pool = %+v; want the session's own engine and pool", snap.Engine, snap.Pool)
	}
	for _, want := range []string{"\nbpmax_folds_total 1\n", "\nbpmax_cache_result_hits_total 2\n",
		"\nbpmax_engine_width ", "\nbpmax_pool_hit_rate "} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics/prom missing %q", want)
		}
	}

	if snap.PartitionFallbacks != 0 {
		t.Fatalf("partition_guard_fallbacks = %d before any partition fold", snap.PartitionFallbacks)
	}
	body := map[string]any{"seq1": "GGGAGACUCCC", "seq2": "UUUGGGAGUCU", "algebra": "partition", "kt": 0.001}
	if code := postWire(t, base+"/v1/fold", body); code != http.StatusOK {
		t.Fatalf("partition fold: status %d", code)
	}
	if snap = metricsDoc(); snap.PartitionFallbacks == 0 || snap.Folds != 2 {
		t.Errorf("after a kT=0.001 partition fold: partition_guard_fallbacks = %d, folds = %d; want the guard counted and 2 fills",
			snap.PartitionFallbacks, snap.Folds)
	}
}
