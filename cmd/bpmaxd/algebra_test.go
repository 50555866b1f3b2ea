package main

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"github.com/bpmax-go/bpmax"
)

// TestFoldPartitionEndpoint: the acceptance-criteria request — a partition
// fold over the wire returns a finite logZ dominating the max-plus score
// scaled by 1/kT, and the max-plus response shape is untouched (no logz
// keys).
func TestFoldPartitionEndpoint(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	const s1, s2 = "GGGAAACCC", "GGGUUUCCC"
	ref, err := bpmax.Fold(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, kT := range []float64{1.0, 0.5} {
		body := map[string]any{"seq1": s1, "seq2": s2, "algebra": "partition"}
		if kT != 1.0 {
			body["kt"] = kT
		}
		rec := post(s, "/v1/fold", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("kT=%g: status %d: %s", kT, rec.Code, rec.Body)
		}
		var out foldResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Algebra != "partition" || out.KT != kT {
			t.Fatalf("kT=%g: labeled algebra=%q kt=%g", kT, out.Algebra, out.KT)
		}
		if out.LogZ == nil || math.IsInf(*out.LogZ, 0) || math.IsNaN(*out.LogZ) {
			t.Fatalf("kT=%g: logz = %v, want finite", kT, out.LogZ)
		}
		if bound := float64(ref.Score) / kT; *out.LogZ < bound {
			t.Fatalf("kT=%g: logz %v < score/kT %v", kT, *out.LogZ, bound)
		}
		if out.LogZ1 == nil || out.LogZ2 == nil {
			t.Fatalf("kT=%g: per-strand logz missing: %+v", kT, out)
		}
	}
	// Max-plus responses stay byte-compatible: no algebra/logz/kt keys.
	rec := post(s, "/v1/fold", map[string]any{"seq1": s1, "seq2": s2})
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"algebra", "logz", "logz1", "logz2", "kt"} {
		if _, ok := raw[key]; ok {
			t.Errorf("maxplus response leaked %q: %s", key, rec.Body)
		}
	}
}

// TestPartitionStructureRejected: a partition ensemble has no single
// structure; asking for one is a client error, not a panic.
func TestPartitionStructureRejected(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	rec := post(s, "/v1/fold", map[string]any{
		"seq1": "GGGG", "seq2": "CCCC", "algebra": "partition", "structure": true,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// TestScanPartitionRejected: windowed scans are max-plus only.
func TestScanPartitionRejected(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{ScanWindow: 4})
	rec := post(s, "/v1/scan", map[string]any{
		"seq1": "GGGAAACCC", "seq2": "GGGUUUCCC", "algebra": "partition",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// TestBatchPartitionEndpoint: a partition batch reports per-item logz and
// the log-odds gain; a max-plus batch reports neither.
func TestBatchPartitionEndpoint(t *testing.T) {
	s := newTestServer(t, nil, serverConfig{})
	rec := post(s, "/v1/batch", map[string]any{
		"algebra": "partition",
		"items": []map[string]string{
			{"name": "a", "seq1": "GGGG", "seq2": "CCCC"},
			{"name": "b", "seq1": "AAGG", "seq2": "CCUU"},
		},
	})
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
	if out.Failed != 0 || len(out.Results) != 2 {
		t.Fatalf("batch: %+v", out)
	}
	for _, r := range out.Results {
		if r.LogZ == nil || math.IsNaN(*r.LogZ) || math.IsInf(*r.LogZ, 0) {
			t.Errorf("%s: logz = %v", r.Name, r.LogZ)
		}
	}
	rec = post(s, "/v1/batch", map[string]any{
		"items": []map[string]string{{"name": "a", "seq1": "GGGG", "seq2": "CCCC"}},
	})
	var raw struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Results[0]["logz"]; ok {
		t.Errorf("maxplus batch item leaked logz: %s", rec.Body)
	}
}
