package bpmax

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// pforFunc is the shape of Engine.Run: one parallel loop.
type pforFunc = func(ctx context.Context, n, workers int, f func(int)) error

// forEachRuntime runs body over every way a loop reaches the parallel
// runtime — a live engine, no engine at all, and a closed engine — and
// checks no goroutine outlives the engines.
func forEachRuntime(t *testing.T, body func(name string, run pforFunc)) {
	t.Helper()
	before := runtime.NumGoroutine()
	live, closed := NewEngine(4), NewEngine(4)
	closed.Close()
	var none *Engine
	body("dynamic", live.Run)
	body("nil-engine", none.Run)
	body("closed-engine", closed.Run)
	live.Close()
	checkNoGoroutineLeak(t, before)
}

// checkCoversAllIndices asserts run visits every index of [0, n) exactly
// once for each width × length.
func checkCoversAllIndices(t *testing.T, name string, run pforFunc, widths, lengths []int) {
	t.Helper()
	for _, workers := range widths {
		for _, n := range lengths {
			var count atomic.Int64
			seen := make([]atomic.Bool, n+1)
			err := run(context.Background(), n, workers, func(i int) {
				if seen[i].Swap(true) {
					t.Errorf("%s workers=%d n=%d: index %d visited twice", name, workers, n, i)
				}
				count.Add(1)
			})
			if err != nil {
				t.Errorf("%s workers=%d n=%d: %v", name, workers, n, err)
			}
			if int(count.Load()) != n {
				t.Errorf("%s workers=%d n=%d: visited %d", name, workers, n, count.Load())
			}
		}
	}
}

func TestParallelForCtxCoversAllIndices(t *testing.T) {
	forEachRuntime(t, func(name string, run pforFunc) {
		checkCoversAllIndices(t, name, run, []int{0, 1, 2, 7, 100}, []int{0, 1, 5, 64})
	})
}

func TestParallelForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachRuntime(t, func(name string, run pforFunc) {
		// n = 0 too: an empty loop still reports the dead context.
		for _, n := range []int{0, 100} {
			for _, workers := range []int{1, 4} {
				var count atomic.Int64
				err := run(ctx, n, workers, func(i int) { count.Add(1) })
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s n=%d workers=%d: err = %v, want Canceled", name, n, workers, err)
				}
				if count.Load() != 0 {
					t.Errorf("%s n=%d workers=%d: ran %d iterations after cancel", name, n, workers, count.Load())
				}
			}
		}
	})
}

func TestParallelForCtxCancelMidway(t *testing.T) {
	forEachRuntime(t, func(name string, run pforFunc) {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var count, atCancel atomic.Int64
			err := run(ctx, 10000, workers, func(i int) {
				if count.Add(1) == 5 {
					cancel()
					atCancel.Store(count.Load())
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: err = %v, want Canceled", name, workers, err)
			}
			// Other workers keep claiming items while cancel() runs, so the
			// count is bounded from the moment it returns: each worker but
			// the canceller may finish the one item it already holds (it
			// saw the context live before the cancel), no more.
			if c, at := count.Load(), atCancel.Load(); c-at > int64(workers)-1 {
				t.Errorf("%s workers=%d: %d iterations ran after cancel returned (%d before)", name, workers, c-at, at)
			}
		}
	})
}

func TestParallelForCtxPanicBecomesError(t *testing.T) {
	forEachRuntime(t, func(name string, run pforFunc) {
		for _, workers := range []int{1, 4} {
			err := run(context.Background(), 64, workers, func(i int) {
				if i == 7 {
					panic("poisoned cell")
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s workers=%d: err = %v, want *PanicError", name, workers, err)
			}
			if pe.Value != "poisoned cell" {
				t.Errorf("%s workers=%d: panic value = %v", name, workers, pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Errorf("%s workers=%d: no stack captured", name, workers)
			}
			// The runtime survives the panic: the next loop on it completes.
			var count atomic.Int64
			if err := run(context.Background(), 128, workers, func(int) { count.Add(1) }); err != nil || count.Load() != 128 {
				t.Errorf("%s workers=%d: run after panic: err=%v visited %d of 128", name, workers, err, count.Load())
			}
		}
	})
}

// checkNoGoroutineLeak fails the test if the goroutine count has not
// settled back to the baseline within a grace period.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// solveVariants are the production schedules every robustness test must
// cover, plus the configs that exercise their special paths.
var solveVariants = []struct {
	name string
	v    Variant
	cfg  Config
}{
	{"base", VariantBase, Config{}},
	{"coarse", VariantCoarse, Config{Workers: 3}},
	{"fine", VariantFine, Config{Workers: 3}},
	{"hybrid", VariantHybrid, Config{Workers: 3}},
	{"hybrid-tiled", VariantHybridTiled, Config{Workers: 3, TileI2: 4, TileK2: 3}},
}

func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	p := newTestProblem(t, 11, 9, 11)
	ref := Solve(p, VariantReference, Config{})
	for _, sv := range solveVariants {
		got, err := SolveContext(context.Background(), p, sv.v, sv.cfg)
		if err != nil {
			t.Fatalf("%s: %v", sv.name, err)
		}
		tablesEqual(t, p, ref, got, sv.name)
	}
}

func TestSolveContextPreCancelled(t *testing.T) {
	p := newTestProblem(t, 12, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sv := range solveVariants {
		ft, err := SolveContext(ctx, p, sv.v, sv.cfg)
		if !errors.Is(err, context.Canceled) || ft != nil {
			t.Errorf("%s: table=%v err=%v, want nil table and Canceled", sv.name, ft != nil, err)
		}
	}
	if _, err := SolveWindowedContext(ctx, p, 4, 4, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("windowed: err = %v, want Canceled", err)
	}
}

// TestSolveContextDeadlinePrompt is the acceptance scenario: a 50 ms
// deadline must come back with DeadlineExceeded in well under a second for
// every schedule, leaking no goroutines. The triangle hook holds each
// triangle for a millisecond, so every fill outlasts the deadline whatever
// its size and the kernels' speed, and finishing early proves the
// cooperative checks fire: the schedules and the windowed scan run on a
// 40×40 problem (820 triangles), and one fill on a 200×200 table (~3.2 GB)
// checks that a unit of work on a large table unwinds as promptly.
func TestSolveContextDeadlinePrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms timing test")
	}
	hold := func(int, int) { time.Sleep(time.Millisecond) }
	expire := func(name string, solve func(ctx context.Context) (*FTable, error)) {
		t.Helper()
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		ft, err := solve(ctx)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || ft != nil {
			t.Errorf("%s: table=%v err=%v, want nil table and DeadlineExceeded", name, ft != nil, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s: cancellation took %v, want well under 1s", name, elapsed)
		}
		checkNoGoroutineLeak(t, before)
	}
	p := newTestProblem(t, 3, 40, 40)
	for _, sv := range solveVariants {
		cfg := sv.cfg
		cfg.triangleHook = hold
		expire(sv.name, func(ctx context.Context) (*FTable, error) { return SolveContext(ctx, p, sv.v, cfg) })
	}
	// The windowed solver under the same deadline.
	expire("windowed", func(ctx context.Context) (*FTable, error) {
		return SolveWindowedContext(ctx, p, 30, 30, Config{Workers: 3, triangleHook: hold})
	})

	// Left to its own pacing the GC may hand the large table a span an
	// earlier test freed, and mallocgc must then re-zero all of it through
	// page faults before Solve even starts — an uncancellable multi-second
	// stall that only a test process recycling such spans sees. A real fold
	// gets a fresh lazily-zeroed mapping (measured: the same cancel returns in
	// ~50 ms), so pin that condition: GC suspended, and a 64 MB allocation
	// held through the solve to take the pages earlier tests freed.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	pad := make([]byte, 64<<20)
	defer runtime.KeepAlive(pad)
	large := newTestProblem(t, 3, 200, 200)
	expire("hybrid-tiled/200x200", func(ctx context.Context) (*FTable, error) {
		return SolveContext(ctx, large, VariantHybridTiled, Config{Workers: 3, triangleHook: hold})
	})
}

// TestSolveContextPanicIsolation injects a panic into a triangle task of
// every schedule (via the test-only hook) and checks it surfaces as a
// *PanicError instead of crashing, with all workers joined.
func TestSolveContextPanicIsolation(t *testing.T) {
	p := newTestProblem(t, 4, 10, 10)
	for _, sv := range solveVariants {
		before := runtime.NumGoroutine()
		cfg := sv.cfg
		cfg.triangleHook = func(i1, j1 int) {
			if i1 == 0 && j1 == 5 {
				panic("injected fault")
			}
		}
		ft, err := SolveContext(context.Background(), p, sv.v, cfg)
		var pe *PanicError
		if !errors.As(err, &pe) || ft != nil {
			t.Errorf("%s: table=%v err=%v, want nil table and *PanicError", sv.name, ft != nil, err)
			continue
		}
		if pe.Value != "injected fault" {
			t.Errorf("%s: panic value = %v", sv.name, pe.Value)
		}
		checkNoGoroutineLeak(t, before)
	}
	// Windowed solver: same contract.
	cfg := Config{Workers: 3}
	cfg.triangleHook = func(i1, j1 int) {
		if i1 == 2 && j1 == 4 {
			panic("injected fault")
		}
	}
	wt, err := SolveWindowedContext(context.Background(), p, 4, 4, cfg)
	var pe *PanicError
	if !errors.As(err, &pe) || wt != nil {
		t.Errorf("windowed: table=%v err=%v, want nil table and *PanicError", wt != nil, err)
	}
}

func TestSolveContextPanicInline(t *testing.T) {
	// With workers=1 the row tasks run inline on the calling goroutine
	// (no worker goroutines at all); the panic must still come back as an
	// error rather than escaping SolveContext.
	p := newTestProblem(t, 5, 6, 6)
	cfg := Config{Workers: 1}
	cfg.triangleHook = func(i1, j1 int) {
		if i1 == 1 && j1 == 3 {
			panic("serial fault")
		}
	}
	ft, err := SolveContext(context.Background(), p, VariantFine, cfg)
	var pe *PanicError
	if !errors.As(err, &pe) || ft != nil {
		t.Fatalf("table=%v err=%v, want nil table and *PanicError", ft != nil, err)
	}
}

func TestSolveUnknownVariantErrors(t *testing.T) {
	p := newTestProblem(t, 6, 4, 4)
	if _, err := SolveContext(context.Background(), p, Variant(99), Config{}); err == nil {
		t.Error("unknown variant accepted")
	}
}
