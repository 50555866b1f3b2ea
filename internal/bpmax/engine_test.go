package bpmax

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEngineCoversAllIndices(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	checkCoversAllIndices(t, "dynamic", e.Run, []int{0, 1, 2, 7, 100}, []int{0, 1, 5, 64, 1000})
}

func TestEngineCancellation(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int64
	if err := e.Run(pre, 100, 4, func(i int) { count.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled: err = %v", err)
	}
	if count.Load() != 0 {
		t.Errorf("pre-cancelled: ran %d iterations", count.Load())
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	count.Store(0)
	err := e.Run(ctx, 10000, 4, func(i int) {
		if count.Add(1) == 5 {
			cancelMid()
		}
	})
	cancelMid()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("midway: err = %v", err)
	}
	if c := count.Load(); c > 5+4 {
		t.Errorf("midway: %d iterations ran after cancel", c)
	}
}

func TestEnginePanicIsolationAndReuse(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	err := e.Run(context.Background(), 64, 4, func(i int) {
		if i == 7 {
			panic("poisoned item")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "poisoned item" {
		t.Errorf("panic value = %v", pe.Value)
	}
	// The persistent workers must have survived the panic: the engine stays
	// fully functional for the next loop.
	var count atomic.Int64
	if err := e.Run(context.Background(), 128, 4, func(i int) { count.Add(1) }); err != nil {
		t.Fatalf("run after panic: %v", err)
	}
	if count.Load() != 128 {
		t.Errorf("run after panic visited %d of 128", count.Load())
	}
}

func TestEngineGoroutineCountStable(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(4)
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 3 {
		t.Errorf("NewEngine(4) spawned %d goroutines, want <= 3", grew)
	}
	for i := 0; i < 100; i++ {
		if err := e.Run(context.Background(), 64, 4, func(int) {}); err != nil {
			t.Fatal(err)
		}
	}
	if now := runtime.NumGoroutine(); now > after {
		t.Errorf("goroutines grew across runs: %d -> %d", after, now)
	}
	e.Close()
	checkNoGoroutineLeak(t, before)
}

func TestEngineConcurrentSubmitters(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				var count atomic.Int64
				if err := e.Run(context.Background(), 50, 4, func(int) { count.Add(1) }); err != nil {
					t.Errorf("concurrent run: %v", err)
					return
				}
				if count.Load() != 50 {
					t.Errorf("concurrent run visited %d of 50", count.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEngineClosedFallsBack(t *testing.T) {
	e := NewEngine(4)
	e.Close()
	e.Close() // idempotent
	var count atomic.Int64
	if err := e.Run(context.Background(), 64, 4, func(int) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 64 {
		t.Errorf("closed engine visited %d of 64", count.Load())
	}
}

// TestEngineSolveParity runs every schedule on a shared engine and checks
// the tables are bit-identical to the oracle.
func TestEngineSolveParity(t *testing.T) {
	p := newTestProblem(t, 21, 9, 11)
	ref := Solve(p, VariantReference, Config{})
	e := NewEngine(4)
	defer e.Close()
	for _, sv := range solveVariants {
		cfg := sv.cfg
		cfg.Engine = e
		got, err := SolveContext(context.Background(), p, sv.v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sv.name, err)
		}
		tablesEqual(t, p, ref, got, sv.name+"/engine")
	}
}

// TestEngineSolveCancelAndPanic re-runs the PR-1 robustness contracts on the
// engine-backed runtime: cancellation surfaces ctx.Err, an injected panic
// surfaces as *PanicError, and the shared engine survives both.
func TestEngineSolveCancelAndPanic(t *testing.T) {
	p := newTestProblem(t, 22, 10, 10)
	e := NewEngine(4)
	defer e.Close()
	for _, sv := range solveVariants {
		cfg := sv.cfg
		cfg.Engine = e

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if ft, err := SolveContext(ctx, p, sv.v, cfg); !errors.Is(err, context.Canceled) || ft != nil {
			t.Errorf("%s: table=%v err=%v, want nil table and Canceled", sv.name, ft != nil, err)
		}

		pcfg := cfg
		pcfg.triangleHook = func(i1, j1 int) {
			if i1 == 0 && j1 == 5 {
				panic("injected fault")
			}
		}
		ft, err := SolveContext(context.Background(), p, sv.v, pcfg)
		var pe *PanicError
		if !errors.As(err, &pe) || ft != nil {
			t.Errorf("%s: table=%v err=%v, want nil table and *PanicError", sv.name, ft != nil, err)
		}

		// The engine must still produce correct results afterwards.
		got, err := SolveContext(context.Background(), p, sv.v, cfg)
		if err != nil {
			t.Fatalf("%s after faults: %v", sv.name, err)
		}
		ref := Solve(p, VariantReference, Config{})
		tablesEqual(t, p, ref, got, sv.name+"/engine-after-faults")
	}
}
