package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/bpmax-go/bpmax/internal/workload"
)

func TestRecordWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	err := run(t.Context(), []string{
		"-record", path, "-mixes", "poisson/uniform", "-n", "25",
		"-rate", "100", "-seed", "3", "-scan-every", "5", "-window", "8", "-timeout-ms", "250",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs, err := workload.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 25 {
		t.Fatalf("recorded %d requests, want 25", len(reqs))
	}
	scans := 0
	for _, rq := range reqs {
		if rq.Op == workload.OpScan {
			scans++
		}
		if rq.TimeoutMs != 250 {
			t.Fatalf("timeout_ms not stamped: %+v", rq)
		}
	}
	if scans != 5 {
		t.Errorf("got %d scans, want 5", scans)
	}
}

// stubServer mimics bpmaxd's wire surface with scripted outcomes so the
// replayer's accounting and artifact paths are testable without folding.
type stubServer struct {
	ok, shed, errs atomic.Int64
	shedEvery      int64 // every Nth fold answers 429
	failEvery      int64 // every Nth fold answers 500
	hits, misses   atomic.Int64
}

func (st *stubServer) start(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, r *http.Request) {
		n := st.ok.Load() + st.shed.Load() + st.errs.Load() + 1
		switch {
		case st.failEvery > 0 && n%st.failEvery == 0:
			st.errs.Add(1)
			w.WriteHeader(http.StatusInternalServerError)
		case st.shedEvery > 0 && n%st.shedEvery == 0:
			st.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			st.ok.Add(1)
			if n%2 == 0 {
				st.hits.Add(1)
			} else {
				st.misses.Add(1)
			}
			json.NewEncoder(w).Encode(map[string]any{"score": 1.0})
		}
	}
	mux.HandleFunc("/v1/fold", serve)
	mux.HandleFunc("/v1/scan", serve)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"server": map[string]any{
				"requests": st.ok.Load() + st.shed.Load() + st.errs.Load(),
				"ok":       st.ok.Load(),
				"shed":     st.shed.Load(),
				"failed":   st.errs.Load(),
			},
			"cache": map[string]any{
				"result_hits":   st.hits.Load(),
				"result_misses": st.misses.Load(),
			},
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestReplayReportAndArtifact(t *testing.T) {
	st := &stubServer{shedEvery: 5}
	addr := st.start(t)
	artPath := filepath.Join(t.TempDir(), "art.json")
	var out bytes.Buffer
	err := run(t.Context(), []string{
		"-addr", addr, "-mixes", "poisson/uniform,bursty/heavytail",
		"-n", "40", "-rate", "2000", "-seed", "5",
		"-json", artPath, "-check", "-max-shed", "0.5",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	blob, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	var art workload.Artifact
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	if art.Schema != workload.ArtifactSchema || len(art.Reports) != 2 {
		t.Fatalf("artifact shape: schema=%q reports=%d, want one per mix", art.Schema, len(art.Reports))
	}
	for _, label := range []string{"poisson/uniform", "bursty/heavytail"} {
		r, ok := art.Reports[label]
		if !ok {
			t.Fatalf("report %q missing (have %v)", label, art.Reports)
		}
		if r.Total != 40 || r.OK+r.Shed != 40 {
			t.Errorf("%s: accounting %+v", label, r)
		}
		if r.CacheHitRate < 0 {
			t.Errorf("%s: cache hit rate not fetched from /metrics", label)
		}
	}
	if !strings.Contains(out.String(), "poisson/uniform") {
		t.Errorf("summary output missing mix line:\n%s", out.String())
	}
}

func TestCheckFailsOnServerErrors(t *testing.T) {
	st := &stubServer{failEvery: 4}
	addr := st.start(t)
	var out bytes.Buffer
	err := run(t.Context(), []string{
		"-addr", addr, "-mixes", "poisson/uniform", "-n", "20", "-rate", "2000", "-check",
	}, &out)
	if err == nil {
		t.Fatal("-check accepted a run with 5xx responses")
	}
	if !strings.Contains(err.Error(), "server errors") {
		t.Errorf("error %v does not name the 5xx failure", err)
	}
}

func TestCheckFailsOnExcessiveShed(t *testing.T) {
	st := &stubServer{shedEvery: 2}
	addr := st.start(t)
	var out bytes.Buffer
	err := run(t.Context(), []string{
		"-addr", addr, "-mixes", "poisson/uniform", "-n", "20", "-rate", "2000",
		"-check", "-max-shed", "0.1",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "shed rate") {
		t.Fatalf("want shed-rate failure, got %v", err)
	}
}

func TestReplayTraceFile(t *testing.T) {
	st := &stubServer{}
	addr := st.start(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.jsonl")
	var out bytes.Buffer
	if err := run(t.Context(), []string{
		"-record", path, "-mixes", "poisson/uniform", "-n", "10", "-rate", "2000", "-seed", "8",
	}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(t.Context(), []string{"-addr", addr, "-trace", path, "-check"}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "mini") {
		t.Errorf("trace label not derived from filename:\n%s", out.String())
	}
}

func TestUnknownMixRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-record", filepath.Join(t.TempDir(), "x.jsonl"),
		"-mixes", "warp/uniform"}, &out); err == nil {
		t.Fatal("unknown arrival accepted")
	}
}
