package bpmax

import (
	"context"
	"errors"
	"testing"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/score"
)

// obsVariants is the per-schedule expectation table: which phases a
// schedule reports and the total units each phase should credit for an
// n1 × n2 problem (T = number of inner triangles = n1(n1+1)/2).
var obsVariants = []struct {
	name     string
	variant  Variant
	schedule string
	units    func(n1, n2, tilesPT int) map[metrics.Phase]int64
}{
	{"base", VariantBase, "base", func(n1, n2, _ int) map[metrics.Phase]int64 {
		return map[metrics.Phase]int64{metrics.PhaseTriangle: tris(n1)}
	}},
	{"coarse", VariantCoarse, "coarse", func(n1, n2, _ int) map[metrics.Phase]int64 {
		return map[metrics.Phase]int64{metrics.PhaseTriangle: tris(n1)}
	}},
	{"fine", VariantFine, "fine", func(n1, n2, _ int) map[metrics.Phase]int64 {
		return map[metrics.Phase]int64{
			metrics.PhaseAccum:    tris(n1) * int64(n2),
			metrics.PhaseFinalize: tris(n1),
		}
	}},
	{"hybrid", VariantHybrid, "hybrid", func(n1, n2, _ int) map[metrics.Phase]int64 {
		return map[metrics.Phase]int64{
			metrics.PhaseAccum:    tris(n1) * int64(n2),
			metrics.PhaseFinalize: tris(n1),
		}
	}},
	{"hybrid-tiled", VariantHybridTiled, "hybrid-tiled", func(n1, n2, tilesPT int) map[metrics.Phase]int64 {
		return map[metrics.Phase]int64{
			metrics.PhaseAccum:    tris(n1) * int64(tilesPT),
			metrics.PhaseFinalize: tris(n1),
		}
	}},
}

func tris(n1 int) int64 { return int64(n1) * int64(n1+1) / 2 }

func TestMetricsRecordedPerVariant(t *testing.T) {
	const n1, n2 = 9, 7
	p := newTestProblem(t, 41, n1, n2)
	want := Solve(p, VariantReference, Config{})

	for _, tc := range obsVariants {
		t.Run(tc.name, func(t *testing.T) {
			var fm metrics.FoldMetrics
			cfg := Config{Workers: 2, Metrics: &fm}.withDefaults()
			f, err := SolveContext(context.Background(), p, tc.variant, cfg)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			// Instrumentation must not perturb results.
			tablesEqual(t, p, want, f, tc.name+"+metrics")

			if fm.Schedule != tc.schedule {
				t.Errorf("Schedule = %q, want %q", fm.Schedule, tc.schedule)
			}
			wantKernel := maxplus.Impl()
			if tc.variant == VariantBase {
				wantKernel = "go" // per-cell gathers
			}
			if fm.Kernel != wantKernel {
				t.Errorf("Kernel = %q, want %q", fm.Kernel, wantKernel)
			}
			var goFM metrics.FoldMetrics
			goCfg := Config{Workers: 2, Metrics: &goFM}
			goCfg.SetKernels("go")
			if _, err := SolveContext(context.Background(), p, tc.variant, goCfg); err != nil || goFM.Kernel != "go" {
				t.Errorf("with the Go kernels forced: Kernel = %q (err %v), want go", goFM.Kernel, err)
			}
			if fm.N1 != n1 || fm.N2 != n2 {
				t.Errorf("shape = %d×%d, want %d×%d", fm.N1, fm.N2, n1, n2)
			}
			if fm.Workers != 2 {
				t.Errorf("Workers = %d, want 2", fm.Workers)
			}
			if fm.Wavefronts != int64(n1) {
				t.Errorf("Wavefronts = %d, want %d", fm.Wavefronts, n1)
			}

			tilesPT := (n2 + cfg.TileI2 - 1) / cfg.TileI2
			wantUnits := tc.units(n1, n2, tilesPT)
			for ph := metrics.Phase(0); ph < metrics.PhaseCount; ph++ {
				st := fm.Phases[ph]
				if wu, ok := wantUnits[ph]; ok {
					if st.Units != wu {
						t.Errorf("phase %s: Units = %d, want %d", ph, st.Units, wu)
					}
					if st.Nanos <= 0 {
						t.Errorf("phase %s: Nanos = %d, want > 0", ph, st.Nanos)
					}
				} else if st.Units != 0 || st.Nanos != 0 {
					t.Errorf("phase %s: unexpected activity (%d units, %d ns)", ph, st.Units, st.Nanos)
				}
			}
		})
	}
}

func TestMetricsRecordedWindowed(t *testing.T) {
	const n1, n2, w1, w2 = 10, 8, 4, 5
	p := newTestProblem(t, 42, n1, n2)
	var fm metrics.FoldMetrics
	w, err := SolveWindowedContext(context.Background(), p, w1, w2, Config{Metrics: &fm})
	if err != nil {
		t.Fatalf("SolveWindowedContext: %v", err)
	}
	defer w.Release()

	if fm.Schedule != "windowed" {
		t.Errorf("Schedule = %q, want %q", fm.Schedule, "windowed")
	}
	if fm.Wavefronts != int64(w1) {
		t.Errorf("Wavefronts = %d, want %d", fm.Wavefronts, w1)
	}
	// Per wavefront d1: (n1-d1)·n2 accumulation rows, (n1-d1) finalizes.
	var wantAcc, wantFin int64
	for d1 := 0; d1 < w1; d1++ {
		wantAcc += int64(n1-d1) * int64(n2)
		wantFin += int64(n1 - d1)
	}
	if got := fm.Phases[metrics.PhaseAccum].Units; got != wantAcc {
		t.Errorf("accumulate units = %d, want %d", got, wantAcc)
	}
	if got := fm.Phases[metrics.PhaseFinalize].Units; got != wantFin {
		t.Errorf("finalize units = %d, want %d", got, wantFin)
	}
}

// TestMetricsRecordInterruptedFill cancels a fill from inside one of its
// triangles, in every schedule: the solve fails, and the sink still says
// where the time went — the phase that was cut short is credited its partial
// wall time (obs.interrupt), units count only completed steps, and the
// wavefront count stops where the fill did. Request traces report exactly
// this record on error exits.
func TestMetricsRecordInterruptedFill(t *testing.T) {
	const n1, n2, stopD1 = 9, 7, 4
	p := newTestProblem(t, 44, n1, n2)
	for _, tc := range obsVariants {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var fm metrics.FoldMetrics
			cfg := Config{Workers: 1, Metrics: &fm}.withDefaults()
			cfg.SetTriangleHook(func(i1, j1 int) {
				if j1-i1 == stopD1 {
					cancel()
				}
			})
			if _, err := SolveContext(ctx, p, tc.variant, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("solve = %v, want context.Canceled", err)
			}
			if fm.Schedule != tc.schedule {
				t.Errorf("Schedule = %q, want %q", fm.Schedule, tc.schedule)
			}
			if fm.Wavefronts != stopD1 {
				t.Errorf("Wavefronts = %d, want the %d completed before the cancel", fm.Wavefronts, stopD1)
			}
			full := tc.units(n1, n2, (n2+cfg.TileI2-1)/cfg.TileI2)
			for ph := metrics.Phase(0); ph < metrics.PhaseCount; ph++ {
				st := fm.Phases[ph]
				wu, active := full[ph]
				switch {
				case !active && st != (metrics.PhaseStat{}):
					t.Errorf("phase %s: unexpected activity %+v", ph, st)
				case active && st.Nanos <= 0:
					t.Errorf("phase %s: no time credited to an interrupted fill", ph)
				case active && st.Units >= wu:
					t.Errorf("phase %s: Units = %d, want fewer than a whole fill's %d", ph, st.Units, wu)
				}
			}
		})
	}
}

// TestMetricsReset checks a recycled FoldMetrics carries nothing over.
func TestMetricsReset(t *testing.T) {
	p := newTestProblem(t, 43, 6, 5)
	var fm metrics.FoldMetrics
	Solve(p, VariantHybrid, Config{Metrics: &fm})
	if fm.Wavefronts == 0 {
		t.Fatal("first solve recorded nothing")
	}
	fm.Reset()
	if fm != (metrics.FoldMetrics{}) {
		t.Fatalf("Reset left state behind: %+v", fm)
	}
	Solve(p, VariantCoarse, Config{Metrics: &fm})
	if fm.Schedule != "coarse" || fm.Wavefronts != 6 {
		t.Fatalf("reused sink: schedule=%q wavefronts=%d", fm.Schedule, fm.Wavefronts)
	}
}

func TestEngineStatsCounting(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()

	if err := e.Run(context.Background(), 64, 4, func(int) {}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := e.Stats()
	if s.Width != 4 {
		t.Errorf("Width = %d, want 4", s.Width)
	}
	if s.Runs != 1 || s.SequentialRuns != 0 {
		t.Errorf("Runs = %d, SequentialRuns = %d, want 1 and 0", s.Runs, s.SequentialRuns)
	}
	if s.HelperOffers != 3 {
		t.Errorf("HelperOffers = %d, want 3", s.HelperOffers)
	}
	if s.HelpersRecruited < 0 || s.HelpersRecruited > 3 {
		t.Errorf("HelpersRecruited = %d, want within [0, 3]", s.HelpersRecruited)
	}
	// Chunk-of-1 dynamic scheduling: every index is one claim.
	if s.ChunksClaimed != 64 {
		t.Errorf("ChunksClaimed = %d, want 64", s.ChunksClaimed)
	}

	// Width-1 loops take the sequential path.
	if err := e.Run(context.Background(), 8, 1, func(int) {}); err != nil {
		t.Fatalf("Run(width 1): %v", err)
	}
	s = e.Stats()
	if s.Runs != 2 || s.SequentialRuns != 1 {
		t.Errorf("after sequential run: Runs = %d, SequentialRuns = %d, want 2 and 1", s.Runs, s.SequentialRuns)
	}

	// A panicking body counts once and surfaces as an error.
	if err := e.Run(context.Background(), 8, 4, func(i int) {
		if i == 3 {
			panic("boom")
		}
	}); err == nil {
		t.Error("panic did not surface as error")
	}
	if got := e.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

func TestEngineStatsFallbackAfterClose(t *testing.T) {
	e := NewEngine(2)
	e.Close()
	if err := e.Run(context.Background(), 8, 2, func(int) {}); err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	s := e.Stats()
	if s.FallbackRuns != 1 {
		t.Errorf("FallbackRuns = %d, want 1", s.FallbackRuns)
	}
	if s.Runs != 0 {
		t.Errorf("Runs = %d, want 0 (fallbacks are not engine runs)", s.Runs)
	}
}

func TestPoolStatsCounting(t *testing.T) {
	pl := NewPool()
	cfg := Config{Pool: pl}

	fold := func() {
		p, err := pl.NewProblem("GGGACC", "GGUCC", score.DefaultParams())
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		f := Solve(p, VariantHybrid, cfg)
		f.Release()
		p.Release()
	}

	fold()
	s := pl.Stats()
	if s.ProblemMisses != 1 || s.ProblemHits != 0 {
		t.Errorf("after cold fold: problem hits/misses = %d/%d, want 0/1", s.ProblemHits, s.ProblemMisses)
	}
	if s.FTableMisses != 1 {
		t.Errorf("after cold fold: ftable misses = %d, want 1", s.FTableMisses)
	}
	if s.Buffers.Gets != s.Buffers.Misses || s.Buffers.Hits != 0 {
		t.Errorf("cold fold should only miss buffers: %+v", s.Buffers)
	}

	fold()
	s = pl.Stats()
	// Shell reuse goes through sync.Pool, which drops a random fraction of
	// Puts in race mode, so exact warm-hit counts only hold without -race.
	if !raceEnabled && (s.ProblemHits != 1 || s.FTableHits != 1 || s.SolverHits != 1) {
		t.Errorf("warm fold should hit shells: %+v", s)
	}
	if s.Buffers.Hits == 0 {
		t.Errorf("warm fold should reuse a buffer: %+v", s.Buffers)
	}
	if s.Buffers.Live != 0 {
		t.Errorf("Live = %d after all releases, want 0", s.Buffers.Live)
	}
	if s.Buffers.RetainedBytes != pl.RetainedBytes() {
		t.Errorf("Stats retained %d != RetainedBytes %d", s.Buffers.RetainedBytes, pl.RetainedBytes())
	}
	if s.Buffers.RetainedHighWater < s.Buffers.RetainedBytes {
		t.Errorf("high water %d below current retention %d", s.Buffers.RetainedHighWater, s.Buffers.RetainedBytes)
	}
	if s.HitRate() <= 0 {
		t.Errorf("HitRate = %v, want > 0 after a warm fold", s.HitRate())
	}

	pl.Trim()
	s = pl.Stats()
	if s.Buffers.RetainedBytes != 0 {
		t.Errorf("retained after Trim = %d, want 0", s.Buffers.RetainedBytes)
	}
	if s.Buffers.RetainedHighWater == 0 {
		t.Error("Trim must not reset the high-water mark")
	}
}
