package nussinov

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/semiring"
)

// randScore builds a deterministic random score function with some
// forbidden (NegInf) entries, mimicking a real pairing model.
func randScore(seed int64, n int) ScoreFunc {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float32, n*n)
	for i := range w {
		if rng.Intn(3) == 0 {
			w[i] = semiring.NegInf
		} else {
			w[i] = float32(rng.Intn(7))
		}
	}
	return func(i, j int) float32 { return w[i*n+j] }
}

// TestGTableLogSumExpDominates: the float64 log-sum-exp fill upper-bounds
// the max-plus fill cell-wise (lse >= max pointwise, inductively), stays
// finite, and is at least One = 0 (the empty structure always derives).
func TestGTableLogSumExpDominates(t *testing.T) {
	n := 14
	score := randScore(99, n)
	mp := Build(n, score)
	kT := 0.7
	lse := BuildG(n, semiring.LogSumExpKernels(), func(i, j int) float64 {
		w := score(i, j)
		if w <= semiring.NegInf/2 {
			return math.Inf(-1)
		}
		return float64(w) / kT
	})
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			g := lse.At(i, j)
			if math.IsInf(g, 0) || math.IsNaN(g) {
				t.Fatalf("S[%d,%d] = %v not finite", i, j, g)
			}
			if g < 0 {
				t.Fatalf("S[%d,%d] = %v below the empty-structure floor", i, j, g)
			}
			if bound := float64(mp.At(i, j)) / kT; g < bound-1e-9 {
				t.Fatalf("S[%d,%d] = %v < maxplus/kT = %v", i, j, g, bound)
			}
		}
	}
}

// TestGTableSumProductScaled: the sum-product instantiation, fed Boltzmann
// factors damped by e^{-σ} per nucleotide (pair factors e^{w/kT-2σ}, unpaired
// unit e^{-σ}), stores S·e^{-σ·len} — so log(cell) + σ·len reproduces the
// log-sum-exp table on every interval, for any σ, with empty intervals
// reading as the semiring's One = 1 rather than zeroed memory.
func TestGTableSumProductScaled(t *testing.T) {
	n := 14
	score := randScore(99, n)
	kT := 0.7
	logw := func(i, j int) float64 {
		if w := score(i, j); w > semiring.NegInf/2 {
			return float64(w) / kT
		}
		return math.Inf(-1)
	}
	want := BuildG(n, semiring.LogSumExpKernels(), logw)
	for _, sigma := range []float64{0, 1.3, 4} {
		got := NewGTable[float64](n)
		err := got.FillContext(context.Background(), semiring.SumProductKernels(), math.Exp(-sigma),
			ScoreRows(n, func(i, j int) float64 { return math.Exp(logw(i, j) - 2*sigma) }), false, nil)
		if err != nil {
			t.Fatalf("FillContext: %v", err)
		}
		if one := got.At(3, 2); one != 1 {
			t.Fatalf("σ=%v: empty interval reads %v, want One = 1", sigma, one)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				lg := math.Log(got.At(i, j)) + sigma*float64(j-i+1)
				if d := math.Abs(lg - want.At(i, j)); d > 1e-12*math.Max(1, want.At(i, j)) {
					t.Fatalf("σ=%v: log S[%d,%d] = %v, log-sum-exp fill %v", sigma, i, j, lg, want.At(i, j))
				}
			}
		}
	}
}

// TestFillContextMatchesBuildG: the cancellable call computes the same table
// as the BuildG wrapper over it, and an already-cancelled context fails it.
func TestFillContextMatchesBuildG(t *testing.T) {
	n := 11
	score := randScore(7, n)
	k := semiring.MaxPlusKernels(false)
	want := BuildG(n, k, score)
	got := NewGTable[float32](n)
	if err := got.FillContext(context.Background(), k, k.One, ScoreRows(n, score), false, nil); err != nil {
		t.Fatalf("FillContext: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Fatalf("S[%d,%d] = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := got.FillContext(cancelled, k, k.One, ScoreRows(n, score), false, nil); err == nil {
		t.Fatal("cancelled build succeeded")
	}
}

// TestGTableReset: a reused table is indistinguishable from a fresh one.
func TestGTableReset(t *testing.T) {
	score := randScore(13, 9)
	sf := func(i, j int) float32 { return score(i, j) }
	fresh := BuildG(9, semiring.MaxPlusKernels(false), sf)
	reused := NewGTable[float32](20)
	for i := range reused.data {
		reused.data[i] = -42 // poison
	}
	reused.Reset(9)
	if err := reused.FillContext(context.Background(), semiring.MaxPlusKernels(false), 0, ScoreRows(9, sf), false, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		for j := i; j < 9; j++ {
			if fresh.At(i, j) != reused.At(i, j) {
				t.Fatalf("S[%d,%d] = %v after Reset, want %v", i, j, reused.At(i, j), fresh.At(i, j))
			}
		}
	}
}
