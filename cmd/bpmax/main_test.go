package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/maxplus"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	runErr := fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRunWithArgs(t *testing.T) {
	if err := run(t.Context(), []string{"GGG", "CCC"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllVariants(t *testing.T) {
	for _, v := range []string{"base", "coarse", "fine", "hybrid", "hybrid-tiled"} {
		if err := run(t.Context(), []string{"-variant", v, "GGAUCC", "GGAUCC"}); err != nil {
			t.Errorf("variant %s: %v", v, err)
		}
	}
}

func TestRunWithTuning(t *testing.T) {
	err := run(t.Context(), []string{"-workers", "2", "-unit", "-packed", "-stats", "GGG", "CCC"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The tile shape is not a serving knob: every fold runs the default.
	for _, f := range []string{"-tile-i2", "-tile-k2", "-tile-j2"} {
		if err := run(t.Context(), []string{f, "4", "GGG", "CCC"}); err == nil {
			t.Errorf("%s accepted", f)
		}
	}
}

func TestRunWindowed(t *testing.T) {
	if err := run(t.Context(), []string{"-window", "4", "-stats", "GGGAAACCC", "GGGUUUCCC"}); err != nil {
		t.Fatalf("windowed run: %v", err)
	}
}

func TestRunDrawAndEnsemble(t *testing.T) {
	if err := run(t.Context(), []string{"-draw", "-ensemble", "GGGAAACCC", "gggtttccc"}); err != nil {
		t.Fatalf("run -draw -ensemble: %v", err)
	}
}

func TestRunFasta(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pair.fa")
	if err := os.WriteFile(path, []byte(">a\nGGG\n>b\nCCC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-fasta", path}); err != nil {
		t.Fatalf("fasta run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                             // no sequences
		{"GGG"},                        // one sequence
		{"GGG", "CCC", "AAA"},          // three sequences
		{"GGX", "CCC"},                 // invalid base
		{"-variant", "warp", "A", "C"}, // unknown variant
		{"-fasta", "/nonexistent/x.fa"},
	}
	for _, args := range cases {
		if err := run(t.Context(), args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

func TestRunFastaTooFewRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.fa")
	if err := os.WriteFile(path, []byte(">a\nGGG\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-fasta", path}); err == nil {
		t.Error("expected error for single-record FASTA")
	}
}

func TestRunFastaResolving(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "amb.fa")
	if err := os.WriteFile(path, []byte(">a\nGGNN\n>b\nCCNN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-fasta", path}); err == nil {
		t.Error("strict mode accepted N")
	}
	if err := run(t.Context(), []string{"-fasta", path, "-resolve", "7"}); err != nil {
		t.Fatalf("resolving run: %v", err)
	}
}

func TestRunTimeoutExpires(t *testing.T) {
	// A 1 ns deadline is already expired at the first cooperative check, so
	// this is deterministic regardless of machine speed.
	err := run(t.Context(), []string{"-timeout", "1ns", "GGGAAACCC", "GGGUUUCCC"})
	if err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Errorf("err = %v, want the -timeout explanation", err)
	}
}

func TestRunMemLimit(t *testing.T) {
	// Over budget with no fallback: the actionable message.
	err := run(t.Context(), []string{"-mem-limit", "1", "GGGAAACCC", "GGGUUUCCC"})
	if err == nil || !strings.Contains(err.Error(), "-degrade-window") {
		t.Errorf("err = %v, want the memory-limit explanation", err)
	}
	// Unparseable size.
	if err := run(t.Context(), []string{"-mem-limit", "lots", "GGG", "CCC"}); err == nil {
		t.Error("invalid -mem-limit accepted")
	}
	// Generous limit: folds normally.
	if err := run(t.Context(), []string{"-mem-limit", "1GB", "GGG", "CCC"}); err != nil {
		t.Errorf("generous limit failed: %v", err)
	}
}

func TestRunDegradeWindow(t *testing.T) {
	// -degrade-window without -mem-limit is a usage error.
	if err := run(t.Context(), []string{"-degrade-window", "4", "GGG", "CCC"}); err == nil {
		t.Error("-degrade-window without -mem-limit accepted")
	}
	// A limit that only the banded table fits: the fold degrades and says so.
	s1, s2 := "GGGAAACCCGGGAAACCC", "GGGUUUCCCGGGUUUCCC"
	limit := fmt.Sprint(bpmax.EstimateWindowedBytes(len(s1), len(s2), 4, 4))
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-mem-limit", limit, "-degrade-window", "4", "-stats", s1, s2})
	})
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	for _, want := range []string{"degraded to the windowed layout", "best windowed interaction score", "scan time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWindowStats(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-window", "4", "-stats", "GGGAAACCC", "GGGUUUCCC"})
	})
	if err != nil {
		t.Fatalf("windowed run: %v", err)
	}
	if !strings.Contains(out, "scan time") || !strings.Contains(out, "Mcells/s") {
		t.Errorf("-window -stats output missing timing:\n%s", out)
	}
	if !strings.Contains(out, "kernel: "+maxplus.Impl()+"\n") {
		t.Errorf("-window -stats output does not name the kernel implementation %s:\n%s", maxplus.Impl(), out)
	}
}

func TestRunMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := run(t.Context(), []string{"-metrics-json", path, "GGGAAACCC", "GGGUUUCCC"}); err != nil {
		t.Fatalf("run -metrics-json: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	var doc struct {
		Fold   *bpmax.FoldSnapshot   `json:"fold"`
		Totals bpmax.MetricsSnapshot `json:"totals"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Fold == nil || doc.Fold.Cells == 0 || doc.Fold.Schedule == "" || doc.Fold.Kernel == "" {
		t.Errorf("fold snapshot incomplete: %+v", doc.Fold)
	}
	if doc.Totals.Folds != 1 || doc.Totals.Errors != 0 {
		t.Errorf("totals = %+v, want one clean fold", doc.Totals)
	}
	if _, ok := doc.Fold.Phases["substrate"]; !ok {
		t.Errorf("fold phases missing substrate: %v", doc.Fold.Phases)
	}
}

func TestRunMetricsJSONStdout(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-metrics-json", "-", "GGG", "CCC"})
	})
	if err != nil {
		t.Fatalf("run -metrics-json -: %v", err)
	}
	if !strings.Contains(out, `"totals"`) || !strings.Contains(out, `"schedule"`) {
		t.Errorf("stdout metrics missing fields:\n%s", out)
	}
}

func TestRunMetricsJSONWindowed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "win.json")
	if err := run(t.Context(), []string{"-window", "4", "-metrics-json", path, "GGGAAACCC", "GGGUUUCCC"}); err != nil {
		t.Fatalf("windowed -metrics-json: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A scan is the hybrid schedule on a banded table: the ordinary phase
	// pair, told apart by the schedule name.
	for _, want := range []string{`"schedule": "windowed"`, `"accumulate"`, `"finalize"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("windowed metrics missing %s:\n%s", want, blob)
		}
	}
}

func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pairs.fa")
	fa := ">s1\nGGGG\n>t1\nCCCC\n>s2\nAAAA\n>t2\nAAAA\n>s3\nGG\n>t3\nNN\n"
	if err := os.WriteFile(path, []byte(fa), 0o644); err != nil {
		t.Fatal(err)
	}
	// Strict parse rejects the N record up front...
	if err := run(t.Context(), []string{"-fasta", path, "-batch"}); err == nil {
		t.Error("strict batch accepted N")
	}
	// ...while -resolve folds all three pairs.
	if err := run(t.Context(), []string{"-fasta", path, "-batch", "-resolve", "3"}); err != nil {
		t.Fatalf("batch run: %v", err)
	}
	// Odd record count errors.
	odd := filepath.Join(dir, "odd.fa")
	if err := os.WriteFile(odd, []byte(">a\nGG\n>b\nCC\n>c\nAA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-fasta", odd, "-batch"}); err == nil {
		t.Error("odd batch accepted")
	}
}

func TestRunCachedAndGated(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(t.Context(), []string{"-cache", "0", "-admit", "2", "-metrics-json", "-", "GGGAAACCC", "GGGUUUCCC"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc struct {
		Totals bpmax.MetricsSnapshot `json:"totals"`
	}
	jsonStart := strings.Index(out, "{")
	if jsonStart < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	if err := json.Unmarshal([]byte(out[jsonStart:]), &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, out)
	}
	if doc.Totals.Cache == nil {
		t.Error("metrics document missing the cache section")
	}
	if doc.Totals.Admission == nil {
		t.Error("metrics document missing the admission section")
	} else if doc.Totals.Admission.Admitted == 0 {
		t.Error("admission section recorded no admissions")
	}
}

func TestRunCacheAdmitFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-cache", "lots", "GGG", "CCC"},    // unparsable size
		{"-admit-queue", "4", "GGG", "CCC"}, // queue without gate
	}
	for _, args := range cases {
		if err := run(t.Context(), args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
