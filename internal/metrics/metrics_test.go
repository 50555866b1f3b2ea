package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < PhaseCount; p++ {
		name := p.String()
		if name == "" || name == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if PhaseCount.String() != "unknown" {
		t.Errorf("out-of-range phase should be unknown, got %q", PhaseCount.String())
	}
}

func TestHighWaterConcurrent(t *testing.T) {
	var w HighWater
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Update(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := w.Load(); got != 7999 {
		t.Errorf("high water = %d, want 7999", got)
	}
	w.Update(5)
	if got := w.Load(); got != 7999 {
		t.Errorf("high water dropped to %d", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 100, 1 << 40, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if want := int64(0 + 1 + 1 + 3 + 100 + 1<<40 + 0); s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	if s.Mean() <= 0 {
		t.Errorf("mean = %v", s.Mean())
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty histogram mean should be 0")
	}
}

func sampleFold() *FoldMetrics {
	fm := &FoldMetrics{
		Schedule:   "hybrid-tiled",
		N1:         8,
		N2:         64,
		Workers:    4,
		Wavefronts: 8,
		FillNanos:  int64(20 * time.Millisecond),
		Cells:      74880,
		FLOPs:      1 << 30,
		TableBytes: 600 << 10,
		Degraded:   "none",
	}
	fm.Phases[PhaseAccum] = PhaseStat{Nanos: int64(15 * time.Millisecond), Units: 512}
	fm.Phases[PhaseFinalize] = PhaseStat{Nanos: int64(5 * time.Millisecond), Units: 36}
	return fm
}

func TestFoldMetricsDerived(t *testing.T) {
	fm := sampleFold()
	if g := fm.GFLOPS(); g < 50 || g > 60 {
		t.Errorf("GFLOPS = %v, want ~53.7", g)
	}
	if c := fm.CellsPerSecond(); c != float64(fm.Cells)/0.020 {
		t.Errorf("cells/s = %v", c)
	}
	var zero FoldMetrics
	if zero.GFLOPS() != 0 || zero.CellsPerSecond() != 0 {
		t.Error("zero fold should report zero rates")
	}
	fm.Reset()
	if *fm != (FoldMetrics{}) {
		t.Error("Reset left state behind")
	}
}

func TestFoldSnapshotRoundTrip(t *testing.T) {
	snap := sampleFold().Snapshot()
	if len(snap.Phases) != 2 {
		t.Fatalf("phases = %v, want accumulate+finalize only", snap.Phases)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back FoldSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip changed snapshot:\n%+v\n%+v", snap, back)
	}
}

func TestMetricsAggregation(t *testing.T) {
	var m Metrics
	fm := sampleFold()
	deg := sampleFold()
	deg.Degraded = "windowed"
	m.RecordFold(fm)
	m.RecordFold(deg)
	m.RecordError()
	s := m.Snapshot()
	if s.Folds != 2 || s.Errors != 1 || s.Degraded != 1 {
		t.Errorf("folds/errors/degraded = %d/%d/%d", s.Folds, s.Errors, s.Degraded)
	}
	if s.Cells != 2*fm.Cells || s.FLOPs != 2*fm.FLOPs {
		t.Errorf("cells/flops = %d/%d", s.Cells, s.FLOPs)
	}
	if s.Phases["accumulate"].Units != 1024 {
		t.Errorf("accumulate units = %d, want 1024", s.Phases["accumulate"].Units)
	}
	if s.GFLOPS <= 0 || s.CellsPerSecond <= 0 {
		t.Errorf("rates = %v / %v", s.GFLOPS, s.CellsPerSecond)
	}
	if s.TableBytesHighWater != fm.TableBytes {
		t.Errorf("table high water = %d", s.TableBytesHighWater)
	}
	if s.FoldNanos.Count != 2 {
		t.Errorf("histogram count = %d", s.FoldNanos.Count)
	}
	// Nil receivers and nil folds must be safe no-ops.
	var nilM *Metrics
	nilM.RecordFold(fm)
	nilM.RecordError()
	nilM.RecordPartitionFallback()
	m.RecordFold(nil)
}

func TestMetricsConcurrentRecording(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.RecordFold(sampleFold())
			}
		}()
	}
	wg.Wait()
	if got := m.Folds(); got != goroutines*perG {
		t.Errorf("folds = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	var m Metrics
	m.RecordFold(sampleFold())
	snap := m.Snapshot()
	snap.Engine = &EngineStats{Width: 4, Runs: 10, HelperOffers: 30, HelpersRecruited: 24}
	snap.Pool = &PoolStats{FTableHits: 9, FTableMisses: 1, Buffers: BufferStats{Gets: 10, Hits: 9, Misses: 1}}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip changed snapshot:\n%+v\n%+v", snap, back)
	}
	if hr := snap.Pool.HitRate(); hr != 0.9 {
		t.Errorf("hit rate = %v, want 0.9", hr)
	}
	if (PoolStats{}).HitRate() != 0 {
		t.Error("empty pool hit rate should be 0")
	}
}
