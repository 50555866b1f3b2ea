package bpmax

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
)

// TestWithPoolFoldParity folds the same pairs repeatedly through one pool
// and checks score and structure stay identical to fresh folds — including
// on the later rounds that run entirely on recycled state.
func TestWithPoolFoldParity(t *testing.T) {
	pool := NewPool()
	rng := rand.New(rand.NewSource(11))
	type pair struct{ s1, s2 string }
	var pairs []pair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, pair{randSeq(rng, 8+rng.Intn(6)), randSeq(rng, 8+rng.Intn(6))})
	}
	for round := 0; round < 3; round++ {
		for i, pr := range pairs {
			want, err := Fold(pr.s1, pr.s2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Fold(pr.s1, pr.s2, WithPool(pool))
			if err != nil {
				t.Fatalf("round %d pair %d: %v", round, i, err)
			}
			if got.Score != want.Score {
				t.Fatalf("round %d pair %d: pooled score %v, fresh %v", round, i, got.Score, want.Score)
			}
			gs, ws := got.Structure(), want.Structure()
			if gs.Bracket1 != ws.Bracket1 || gs.Bracket2 != ws.Bracket2 {
				t.Fatalf("round %d pair %d: pooled structure %q/%q, fresh %q/%q",
					round, i, gs.Bracket1, gs.Bracket2, ws.Bracket1, ws.Bracket2)
			}
			got.Release()
		}
	}
}

// TestPooledFoldErrorMessages checks the pooled path reports sequence
// errors with exactly the same text as the unpooled path.
func TestPooledFoldErrorMessages(t *testing.T) {
	pool := NewPool()
	cases := [][2]string{
		{"GGX", "CCC"},
		{"GGG", "CCX"},
		{"", "CCC"},
		{"GGG", ""},
	}
	for _, c := range cases {
		_, wantErr := Fold(c[0], c[1])
		_, gotErr := Fold(c[0], c[1], WithPool(pool))
		if wantErr == nil || gotErr == nil {
			t.Fatalf("%q x %q: expected both paths to fail (fresh=%v pooled=%v)", c[0], c[1], wantErr, gotErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%q x %q:\n  pooled:  %v\n  fresh:   %v", c[0], c[1], gotErr, wantErr)
		}
	}
}

// TestReleaseSafety: Release must be safe on nil results, on unpooled
// results, and when called twice.
func TestReleaseSafety(t *testing.T) {
	var nilRes *Result
	nilRes.Release()
	var nilWin *WindowResult
	nilWin.Release()

	res, err := Fold("GGGAAA", "UUUCCC")
	if err != nil {
		t.Fatal(err)
	}
	res.Release() // unpooled: no-op recycle, must not panic
	res.Release() // idempotent

	pool := NewPool()
	res, err = Fold("GGGAAA", "UUUCCC", WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	res.Release()
	if pool.RetainedBytes() <= 0 {
		t.Error("pooled release retained nothing")
	}
}

// TestPooledMemoryBudget checks WithMemoryLimit accounts pooled buffers
// without double-billing: a fold whose table fits an idle retained buffer
// is charged the retention, not retention plus a second table.
func TestPooledMemoryBudget(t *testing.T) {
	const n = 16
	seq1, seq2 := randSeq(rand.New(rand.NewSource(3)), n), randSeq(rand.New(rand.NewSource(4)), n)

	// A fresh pool is charged exactly the class-rounded table.
	pool := NewPool()
	limit := ibpmax.Charge(ibpmax.NewPool(), n, n, n, n, ibpmax.MapBox, 4)
	res, err := Fold(seq1, seq2, WithPool(pool), WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("fold at exact pooled budget: %v", err)
	}
	if res.Degradation != DegradeNone {
		t.Fatalf("degradation = %v at exact budget", res.Degradation)
	}
	res.Release()

	// Reuse: the retained buffer serves the same shape, so the same limit
	// still admits the fold (retention + 0 new bytes).
	res, err = Fold(seq1, seq2, WithPool(pool), WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("pooled refold double-billed the budget: %v", err)
	}
	res.Release()

	// An impossible limit still fails with the typed error.
	var mle *MemoryLimitError
	if _, err := Fold(seq1, seq2, WithPool(NewPool()), WithMemoryLimit(64)); !errors.As(err, &mle) {
		t.Fatalf("tiny budget: err = %v, want *MemoryLimitError", err)
	}
}

// TestPooledDegradeToWindowed runs the full degradation ladder through a
// pool and checks the windowed rung matches the unpooled windowed result.
func TestPooledDegradeToWindowed(t *testing.T) {
	const w = 4
	seq1 := "GGGAAACCCGGGAAACCC"
	seq2 := "GGGUUUCCCGGGUUUCCC"
	limit := EstimateWindowedBytes(18, 18, w, w) * 2 // admits the band, not the full tables
	if full := EstimateBytes(18, 18, WithPackedMemory()); limit >= full {
		t.Fatalf("limit %d does not force degradation (packed is %d)", limit, full)
	}
	want, err := Fold(seq1, seq2, WithMemoryLimit(limit), WithDegradeToWindowed(w, w))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	for round := 0; round < 2; round++ {
		got, err := Fold(seq1, seq2, WithPool(pool), WithMemoryLimit(limit), WithDegradeToWindowed(w, w))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Degradation != DegradeWindowed || got.Window == nil {
			t.Fatalf("round %d: degradation = %v", round, got.Degradation)
		}
		if got.Score != want.Score || got.Window.Best != want.Window.Best {
			t.Fatalf("round %d: pooled windowed score %v, fresh %v", round, got.Score, want.Score)
		}
		got.Release()
	}
}

// TestScanWindowedPooled checks the standalone windowed scan through a pool
// matches the fresh scan and recycles cleanly.
func TestScanWindowedPooled(t *testing.T) {
	pool := NewPool()
	seq1, seq2 := "GGGAAACCCUUU", "GGGUUUCCCAAA"
	want, err := ScanWindowed(seq1, seq2, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := ScanWindowed(seq1, seq2, 5, 5, WithPool(pool))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Best != want.Best || got.I1 != want.I1 || got.J2 != want.J2 {
			t.Fatalf("round %d: pooled best %v@(%d..%d), fresh %v@(%d..%d)",
				round, got.Best, got.I1, got.J2, want.Best, want.I1, want.J2)
		}
		got.Release()
	}
	if pool.RetainedBytes() <= 0 {
		t.Error("windowed release retained nothing")
	}
	if pool.Trim() <= 0 || pool.RetainedBytes() != 0 {
		t.Error("trim did not clear the pool")
	}
}

// TestSteadyStateGoroutineCount folds 100 times through a shared engine
// and pool and checks the process goroutine count stays flat — no worker
// or helper leaks across folds.
func TestSteadyStateGoroutineCount(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(4)
	pool := NewPool()
	base := runtime.NumGoroutine()
	seq1, seq2 := "GGGGGAAAAA", "UUUUUCCCCC"
	for i := 0; i < 100; i++ {
		res, err := Fold(seq1, seq2, WithEngine(e), WithPool(pool), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutines grew across folds: %d -> %d", base, now)
	}
	e.Close()
	expectGoroutines(t, before, "after Engine.Close")
}

// TestWithEngineFoldParity checks engine-backed folds are bit-identical to
// the default runtime across every public variant.
func TestWithEngineFoldParity(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(13))
	s1, s2 := randSeq(rng, 11), randSeq(rng, 13)
	for _, v := range publicVariants {
		want, err := Fold(s1, s2, WithVariant(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fold(s1, s2, WithVariant(v), WithEngine(e), WithWorkers(4))
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if got.Score != want.Score {
			t.Errorf("%s: engine score %v, fresh %v", v, got.Score, want.Score)
		}
	}
}

// TestPooledFoldAfterCancelAndPanic: a cancelled and a panicked pooled fold
// must not poison the pool for subsequent folds.
func TestPooledFoldAfterCancelAndPanic(t *testing.T) {
	pool := NewPool()
	seq1, seq2 := "GGGGGAAAAA", "UUUUUCCCCC"
	want, err := Fold(seq1, seq2)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FoldContext(ctx, seq1, seq2, WithPool(pool)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pooled fold: err = %v", err)
	}

	boom := withTriangleHook(func(i1, j1 int) {
		if i1 == 0 && j1 == 5 {
			panic("injected fault")
		}
	})
	var pe *PanicError
	if _, err := Fold(seq1, seq2, WithPool(pool), boom); !errors.As(err, &pe) {
		t.Fatalf("panicked pooled fold: err = %v, want *PanicError", err)
	}

	got, err := Fold(seq1, seq2, WithPool(pool))
	if err != nil {
		t.Fatalf("pooled fold after faults: %v", err)
	}
	if got.Score != want.Score {
		t.Errorf("score after faults %v, want %v", got.Score, want.Score)
	}
	got.Release()
}
