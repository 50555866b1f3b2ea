package bpmax

import (
	"context"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"
)

const (
	mSeq1 = "GGGAAACCCUUUGGGAAACCC"
	mSeq2 = "GGGUUUCCCAAAGGGUUUCCC"
)

func TestFoldMetricsPopulated(t *testing.T) {
	m := NewMetrics()
	res, err := Fold(mSeq1, mSeq2, WithMetrics(m))
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	checkFoldRecord(t, res, AlgebraMaxPlus)
	if m.Folds() != 1 || m.Errors() != 0 {
		t.Errorf("aggregate: folds=%d errors=%d, want 1 and 0", m.Folds(), m.Errors())
	}
}

// TestFoldMetricsOnByDefault: recording is unconditional — a fold with no
// option at all carries the same complete record, and so does a partition
// fold.
func TestFoldMetricsOnByDefault(t *testing.T) {
	res, err := Fold(mSeq1, mSeq2)
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	checkFoldRecord(t, res, AlgebraMaxPlus)
	if res, err = Fold(mSeq1, mSeq2, WithAlgebra(AlgebraPartition)); err != nil {
		t.Fatalf("partition Fold: %v", err)
	}
	checkFoldRecord(t, res, AlgebraPartition)
}

// checkFoldRecord asserts a default (hybrid-tiled, unbudgeted) fold of
// mSeq1 × mSeq2 in the given algebra came back with its whole FoldMetrics.
func checkFoldRecord(t *testing.T, res *Result, algebra Algebra) {
	t.Helper()
	fm := &res.Metrics
	if fm.Schedule != "hybrid-tiled" {
		t.Errorf("Schedule = %q, want %q", fm.Schedule, "hybrid-tiled")
	}
	if fm.Kernel != "avx512" && fm.Kernel != "avx2" && fm.Kernel != "go" {
		t.Errorf("Kernel = %q, want avx512, avx2 or go", fm.Kernel)
	}
	if fm.Algebra != string(algebra) {
		t.Errorf("Algebra = %q, want %q", fm.Algebra, algebra)
	}
	if fm.N1 != len(mSeq1) || fm.N2 != len(mSeq2) {
		t.Errorf("shape = %d×%d, want %d×%d", fm.N1, fm.N2, len(mSeq1), len(mSeq2))
	}
	if fm.Wavefronts != int64(len(mSeq1)) {
		t.Errorf("Wavefronts = %d, want %d", fm.Wavefronts, len(mSeq1))
	}
	if fm.FillNanos <= 0 || fm.FillNanos != int64(res.Elapsed) {
		t.Errorf("FillNanos = %d, want Elapsed %d", fm.FillNanos, int64(res.Elapsed))
	}
	if fm.FLOPs != res.FLOPs || fm.TableBytes != res.TableBytes {
		t.Errorf("FLOPs/TableBytes = %d/%d, want %d/%d", fm.FLOPs, fm.TableBytes, res.FLOPs, res.TableBytes)
	}
	if fm.Cells <= 0 || fm.CellsPerSecond() <= 0 || fm.GFLOPS() <= 0 {
		t.Errorf("derived rates: cells=%d cells/s=%v gflops=%v, want all > 0", fm.Cells, fm.CellsPerSecond(), fm.GFLOPS())
	}
	if fm.Degraded != "none" {
		t.Errorf("Degraded = %q, want %q", fm.Degraded, "none")
	}
	// A partition fold's Boltzmann substrate is a second substrate step.
	want := int64(1)
	if algebra == AlgebraPartition {
		want = 2
	}
	if fm.Phases[PhaseSubstrate].Units != want {
		t.Errorf("substrate units = %d, want %d", fm.Phases[PhaseSubstrate].Units, want)
	}
	for _, p := range []Phase{PhaseAccum, PhaseFinalize} {
		if st := fm.Phases[p]; st.Nanos <= 0 || st.Units <= 0 {
			t.Errorf("hybrid-tiled fold must time phase %s: %+v", p, st)
		}
	}
	if st := fm.Phases[PhaseTriangle]; st != (PhaseStat{}) {
		t.Errorf("hybrid-tiled fold credited whole-triangle work: %+v", st)
	}
}

func TestFoldMetricsParity(t *testing.T) {
	plain, err := Fold(mSeq1, mSeq2)
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	obs, err := Fold(mSeq1, mSeq2, WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatalf("Fold with metrics: %v", err)
	}
	if plain.Score != obs.Score {
		t.Errorf("score changed under metrics: %v vs %v", plain.Score, obs.Score)
	}
	for i1 := 0; i1 < plain.N1; i1 += 3 {
		for i2 := 0; i2 < plain.N2; i2 += 3 {
			if a, b := plain.SubScore(i1, plain.N1-1, i2, plain.N2-1), obs.SubScore(i1, plain.N1-1, i2, plain.N2-1); a != b {
				t.Fatalf("SubScore(%d,..,%d,..) changed under metrics: %v vs %v", i1, i2, a, b)
			}
		}
	}
}

func TestMetricsConcurrentFolds(t *testing.T) {
	m := NewMetrics()
	e := NewEngine(4)
	defer e.Close()
	pool := NewPool()
	items := []BatchItem{
		{Name: "a", Seq1: mSeq1, Seq2: mSeq2},
		{Name: "b", Seq1: mSeq2, Seq2: mSeq1},
		{Name: "c", Seq1: mSeq1[:12], Seq2: mSeq2},
		{Name: "d", Seq1: mSeq1, Seq2: mSeq2[:12]},
		{Name: "e", Seq1: "GGGAAACCC", Seq2: "GGGUUUCCC"},
		{Name: "f", Seq1: "ACGUACGU", Seq2: "UGCAUGCA"},
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, r := range FoldBatch(items, 4, WithEngine(e), WithPool(pool), WithMetrics(m)) {
			if r.Err != nil {
				t.Fatalf("item %s: %v", r.Name, r.Err)
			}
			if r.Result.Metrics.Wavefronts == 0 {
				t.Fatalf("item %s: empty per-fold metrics", r.Name)
			}
			r.Result.Release()
		}
	}
	if got, want := m.Folds(), int64(rounds*len(items)); got != want {
		t.Errorf("Folds = %d, want %d", got, want)
	}
	snap := m.Snapshot()
	if snap.Errors != 0 || snap.Cells <= 0 || snap.FoldNanos.Count != m.Folds() {
		t.Errorf("snapshot inconsistent: %+v", snap)
	}

	ps := pool.Stats()
	if ps.ResultHits == 0 || ps.HitRate() <= 0 {
		t.Errorf("pool saw no shell reuse: %+v", ps)
	}
	// The batch budget gives each of the 4 concurrent items width 1, so
	// engine loops run on their submitters alone — Runs still counts them.
	es := e.Stats()
	if es.Runs == 0 || es.SequentialRuns+es.HelperOffers == 0 {
		t.Errorf("engine recorded no work: %+v", es)
	}
}

func TestMetricsErrorRecording(t *testing.T) {
	m := NewMetrics()
	if _, err := Fold("ACGX", "ACGU", WithMetrics(m)); err == nil {
		t.Fatal("invalid sequence folded")
	}
	if m.Errors() != 1 || m.Folds() != 0 {
		t.Errorf("errors=%d folds=%d, want 1 and 0", m.Errors(), m.Folds())
	}
}

func TestMetricsDegradedFold(t *testing.T) {
	m := NewMetrics()
	limit := EstimateWindowedBytes(len(mSeq1), len(mSeq2), 6, 6) + 256
	res, err := Fold(mSeq1, mSeq2,
		WithMetrics(m), WithMemoryLimit(limit), WithDegradeToWindowed(6, 6))
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	if res.Degradation != DegradeWindowed {
		t.Fatalf("Degradation = %v, want windowed (limit %d)", res.Degradation, limit)
	}
	if res.Metrics.Schedule != "windowed" || res.Metrics.Degraded != "windowed" {
		t.Errorf("metrics schedule/degraded = %q/%q, want windowed/windowed", res.Metrics.Schedule, res.Metrics.Degraded)
	}
	if res.Metrics.BudgetEstimateBytes <= 0 || res.Metrics.BudgetEstimateBytes > limit {
		t.Errorf("BudgetEstimateBytes = %d, want in (0, %d]", res.Metrics.BudgetEstimateBytes, limit)
	}
	if res.Window == nil || res.Window.Metrics.Schedule != "windowed" {
		t.Fatal("window result missing its metrics copy")
	}
	if res.Metrics.Algebra != string(AlgebraMaxPlus) || res.Window.Metrics.Algebra != string(AlgebraMaxPlus) {
		t.Errorf("windowed-rung metrics algebra = %q/%q, want maxplus on both", res.Metrics.Algebra, res.Window.Metrics.Algebra)
	}
	if snap := m.Snapshot(); snap.Degraded != 1 {
		t.Errorf("aggregate degraded = %d, want 1", snap.Degraded)
	}
}

func TestScanWindowedMetrics(t *testing.T) {
	m := NewMetrics()
	win, err := ScanWindowed(mSeq1, mSeq2, 5, 5, WithMetrics(m))
	if err != nil {
		t.Fatalf("ScanWindowed: %v", err)
	}
	if win.Metrics.Schedule != "windowed" {
		t.Errorf("Schedule = %q, want windowed", win.Metrics.Schedule)
	}
	if win.Metrics.Algebra != string(AlgebraMaxPlus) {
		t.Errorf("Algebra = %q, want maxplus", win.Metrics.Algebra)
	}
	if win.Metrics.Wavefronts != 5 {
		t.Errorf("Wavefronts = %d, want 5", win.Metrics.Wavefronts)
	}
	if win.Metrics.FillNanos != int64(win.Elapsed) {
		t.Errorf("FillNanos = %d, want %d", win.Metrics.FillNanos, int64(win.Elapsed))
	}
	if m.Folds() != 1 {
		t.Errorf("Folds = %d, want 1", m.Folds())
	}
}

func TestMetricsSnapshotJSON(t *testing.T) {
	m := NewMetrics()
	e := NewEngine(2)
	defer e.Close()
	pool := NewPool()
	res, err := Fold(mSeq1, mSeq2, WithMetrics(m), WithEngine(e), WithPool(pool))
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	foldSnap := res.Metrics.Snapshot()
	res.Release()

	snap := m.Snapshot()
	es, ps := e.Stats(), pool.Stats()
	snap.Engine, snap.Pool = &es, &ps

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Folds != 1 || back.Engine == nil || back.Pool == nil {
		t.Fatalf("round trip lost data: %s", raw)
	}
	if back.Engine.Width != 2 {
		t.Errorf("engine width = %d, want 2", back.Engine.Width)
	}
	if back.Pool.Buffers.Gets == 0 {
		t.Errorf("pool buffer traffic lost: %+v", back.Pool)
	}

	fraw, err := json.Marshal(foldSnap)
	if err != nil {
		t.Fatalf("marshal fold snapshot: %v", err)
	}
	var fback FoldSnapshot
	if err := json.Unmarshal(fraw, &fback); err != nil {
		t.Fatalf("unmarshal fold snapshot: %v", err)
	}
	if fback.Schedule != "hybrid-tiled" || fback.Phases["accumulate"].Units == 0 {
		t.Fatalf("fold snapshot round trip lost data: %s", fraw)
	}
}

// TestMetricsZeroAllocSteadyState is the acceptance gate: every fold records
// its FoldMetrics, and the pooled steady state still allocates nothing —
// with no option, and with the aggregate attached.
func TestMetricsZeroAllocSteadyState(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting in -short; under -race sync.Pool drops Puts, so pooled shells reallocate")
	}
	// A GC inside the measured window refills sync.Pool victim caches and
	// charges the strays to the measurement; settle the heap and hold GC off
	// so it sees only algorithmic allocations.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A session parses its options once and a substrate-only cache serves
	// the S tables, so a cycle is the pipeline and the fill alone (the
	// package-level Fold adds option parsing, an uncached substrate build
	// one closure per strand).
	run := func(extra ...Option) float64 {
		subs := WithCache(NewCache(CacheConfig{DisableResults: true}))
		sess, err := NewSession(append([]Option{WithWorkers(2), subs}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		cycle := func() {
			res, err := sess.Fold(context.Background(), mSeq1, mSeq2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Wavefronts == 0 {
				t.Fatal("fold came back without its record")
			}
			res.Release()
		}
		cycle() // warm the pool
		return testing.AllocsPerRun(50, cycle)
	}
	if plain := run(); plain != 0 {
		t.Errorf("no-option allocs/op = %v, want 0: recording must not allocate", plain)
	}
	if agg := run(WithMetrics(NewMetrics())); agg != 0 {
		t.Errorf("WithMetrics allocs/op = %v, want 0: aggregating must not allocate", agg)
	}
}

func TestReleaseClearsMetrics(t *testing.T) {
	pool := NewPool()
	m := NewMetrics()
	res, err := Fold(mSeq1, mSeq2, WithPool(pool), WithMetrics(m))
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	res.Release()
	if res.Metrics != (FoldMetrics{}) {
		t.Errorf("Release left the record in the shell: %+v", res.Metrics)
	}
	// The recycled shell records the next fold alone, not on top of the last.
	res2, err := Fold(mSeq1, mSeq2, WithPool(pool))
	if err != nil {
		t.Fatalf("second Fold: %v", err)
	}
	defer res2.Release()
	if got := res2.Metrics.Phases[PhaseSubstrate].Units; got != 1 {
		t.Errorf("recycled shell: substrate units = %d, want 1", got)
	}
	if res2.Metrics.Wavefronts != int64(len(mSeq1)) {
		t.Errorf("recycled shell: Wavefronts = %d, want %d", res2.Metrics.Wavefronts, len(mSeq1))
	}
}
