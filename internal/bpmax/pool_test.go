package bpmax

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// pooledProblem builds a pooled problem over the same sequences as
// newTestProblem would.
func pooledProblem(t testing.TB, pl *Pool, seed int64, n1, n2 int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := pl.NewProblem(rna.Random(rng, n1).String(), rna.Random(rng, n2).String(), score.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPooledSolveParityAllVariants(t *testing.T) {
	pl := NewPool()
	fresh := newTestProblem(t, 31, 9, 11)
	ref := Solve(fresh, VariantReference, Config{})
	// Two rounds so the second round runs entirely on recycled state.
	for round := 0; round < 2; round++ {
		for _, sv := range solveVariants {
			p := pooledProblem(t, pl, 31, 9, 11)
			cfg := sv.cfg
			cfg.Pool = pl
			got, err := SolveContext(context.Background(), p, sv.v, cfg)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, sv.name, err)
			}
			tablesEqual(t, p, ref, got, sv.name+"/pooled")
			got.Release()
			p.Release()
		}
	}
}

// TestPooledSolveParityAfterDirtyReuse fills a pooled table with garbage
// before releasing it, then checks the next pooled fold still matches the
// oracle — the explicit re-initialization contract.
func TestPooledSolveParityAfterDirtyReuse(t *testing.T) {
	pl := NewPool()
	p := pooledProblem(t, pl, 32, 8, 9)
	ref := Solve(newTestProblem(t, 32, 8, 9), VariantReference, Config{})

	cfg := Config{Workers: 2, Pool: pl}
	ft, err := SolveContext(context.Background(), p, VariantHybridTiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ft.data {
		ft.data[i] = -12345
	}
	ft.Release()

	got, err := SolveContext(context.Background(), p, VariantHybridTiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, p, ref, got, "dirty-reuse")
	got.Release()
	p.Release()
}

// TestPooledReuseAfterCancelAndPanic verifies the pool is not poisoned by a
// cancelled or a panicked fold: subsequent pooled folds stay bit-identical.
func TestPooledReuseAfterCancelAndPanic(t *testing.T) {
	pl := NewPool()
	p := pooledProblem(t, pl, 33, 10, 10)
	ref := Solve(newTestProblem(t, 33, 10, 10), VariantReference, Config{})

	for _, sv := range solveVariants {
		cfg := sv.cfg
		cfg.Pool = pl

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

		got, err := SolveContext(context.Background(), p, sv.v, cfg)
		if err != nil {
			t.Fatalf("%s after faults: %v", sv.name, err)
		}
		tablesEqual(t, p, ref, got, sv.name+"/pooled-after-faults")
		got.Release()
	}
	p.Release()
}

func TestPooledWindowedParity(t *testing.T) {
	pl := NewPool()
	fresh := newTestProblem(t, 34, 9, 8)
	want, err := SolveWindowedContext(context.Background(), fresh, 4, 5, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		p := pooledProblem(t, pl, 34, 9, 8)
		got, err := SolveWindowedContext(context.Background(), p, 4, 5, Config{Workers: 2, Pool: pl})
		if err != nil {
			t.Fatal(err)
		}
		for i1 := 0; i1 < p.N1; i1++ {
			for j1 := i1; j1 < p.N1 && j1-i1 < got.W1; j1++ {
				for i2 := 0; i2 < p.N2; i2++ {
					for j2 := i2; j2 < got.rowHi(i2); j2++ {
						if g, w := got.At(i1, j1, i2, j2), want.At(i1, j1, i2, j2); g != w {
							t.Fatalf("round %d: W[%d,%d,%d,%d] = %v, want %v", round, i1, j1, i2, j2, g, w)
						}
					}
				}
			}
		}
		got.Release()
		p.Release()
	}
}

func TestPoolNewProblemErrors(t *testing.T) {
	pl := NewPool()
	_, err := pl.NewProblem("ACGX", "ACGU", score.DefaultParams())
	var se *SequenceError
	if !errors.As(err, &se) || se.Index != 1 {
		t.Errorf("invalid seq1: err = %v", err)
	}
	_, err = pl.NewProblem("ACGU", "ACGX", score.DefaultParams())
	if !errors.As(err, &se) || se.Index != 2 {
		t.Errorf("invalid seq2: err = %v", err)
	}
	if _, err := pl.NewProblem("", "ACGU", score.DefaultParams()); err == nil {
		t.Error("empty seq1 accepted")
	}
}

func TestPoolRetainedBytesAccounting(t *testing.T) {
	pl := NewPool()
	if pl.RetainedBytes() != 0 {
		t.Fatal("fresh pool retains bytes")
	}
	p := pooledProblem(t, pl, 35, 12, 12)
	cfg := Config{Workers: 1, Pool: pl}
	ft, err := SolveContext(context.Background(), p, VariantHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Handed-out buffers are the caller's to account for, not the pool's.
	if got := pl.RetainedBytes(); got != 0 {
		t.Errorf("retained %d while table in use", got)
	}
	tableBytes := ft.Bytes()
	ft.Release()
	retained := pl.RetainedBytes()
	if retained <= 0 {
		t.Fatal("release retained nothing")
	}
	// The class-rounded buffer is at least the table size.
	if retained < tableBytes {
		t.Errorf("retained %d < table bytes %d", retained, tableBytes)
	}
	// Charge: serving the same shape again reuses the idle buffer.
	if charge := Charge(pl, p.N1, p.N2, p.N1, p.N2, MapBox, 4); charge != retained {
		t.Errorf("Charge same shape = %d, want %d (reuse)", charge, retained)
	}
	// A much larger fold must be charged on top of the retention.
	if charge := Charge(pl, 64, 64, 64, 64, MapBox, 4); charge <= retained {
		t.Errorf("Charge larger shape = %d, want > %d", charge, retained)
	}
	// A partition fold draws from the other arena: it is charged its own
	// class-rounded table on top of this arena's retention.
	if charge := Charge(pl, p.N1, p.N2, p.N1, p.N2, MapBox, 8); charge < retained+2*tableBytes {
		t.Errorf("Charge float64 table = %d, want >= %d + %d", charge, retained, 2*tableBytes)
	}
	if freed := pl.Trim(); freed != retained {
		t.Errorf("Trim freed %d, want %d", freed, retained)
	}
	if pl.RetainedBytes() != 0 {
		t.Error("retained after Trim")
	}
	p.Release()
}

// TestPooledWindowedSteadyStateAllocs: a banded scan runs the solver's
// hoisted task closures like every other schedule, so a pooled repeat scan
// allocates nothing however many wavefronts its window spans (the private
// windowed loop this replaced built two closures per wavefront).
func TestPooledWindowedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// A GC inside the measured window would empty the sync.Pool freelists.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pl := NewPool()
	e := NewEngine(2)
	defer e.Close()
	p := pooledProblem(t, pl, 35, 24, 20)
	defer p.Release()
	cfg := Config{Workers: 2, Pool: pl, Engine: e}
	for _, w1 := range []int{2, 20} {
		scan := func() {
			w, err := SolveWindowedContext(context.Background(), p, w1, 6, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.Release()
		}
		scan() // warm the pool
		if got := testing.AllocsPerRun(20, scan); got != 0 {
			t.Errorf("pooled scan over %d wavefronts: %v allocs/op, want 0", w1, got)
		}
	}
	// The full table is the band W = N: the engine+pooled screening cycle
	// (problem shell, fill, score, release) allocates the two parsed strands
	// and nothing else.
	s1, s2 := p.Seq1.String(), p.Seq2.String()
	fold := func() {
		q, err := pl.NewProblem(s1, s2, score.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		f := Solve(q, VariantHybridTiled, cfg)
		_ = q.Score(f)
		f.Release()
		q.Release()
	}
	fold()
	if got := testing.AllocsPerRun(20, fold); got > 2 {
		t.Errorf("pooled full fold: %v allocs/op, want the 2 strand parses", got)
	}
}

func TestEstimatePooledBytesRoundsUp(t *testing.T) {
	for _, kind := range []MapKind{MapBox, MapPacked} {
		for _, width := range []int{4, 8} {
			exact := Charge(nil, 40, 40, 40, 40, kind, width)
			pooled := Charge(NewPool(), 40, 40, 40, 40, kind, width)
			if pooled < exact {
				t.Errorf("%v/%d: pooled %d < exact %d", kind, width, pooled, exact)
			}
			if pooled >= 2*exact+int64(2*width) {
				t.Errorf("%v/%d: pooled %d >= 2x exact %d", kind, width, pooled, exact)
			}
		}
	}
}

// TestPooledEngineCombined is the steady-state configuration the batch layer
// uses: one pool + one engine shared across repeated solves.
func TestPooledEngineCombined(t *testing.T) {
	pl := NewPool()
	e := NewEngine(4)
	defer e.Close()
	ref := Solve(newTestProblem(t, 36, 9, 9), VariantReference, Config{})
	for i := 0; i < 5; i++ {
		p := pooledProblem(t, pl, 36, 9, 9)
		cfg := Config{Workers: 4, Pool: pl, Engine: e}
		ft, err := SolveContext(context.Background(), p, VariantHybridTiled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, p, ref, ft, "pool+engine")
		ft.Release()
		p.Release()
	}
}
