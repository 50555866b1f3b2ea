package bpmax

import (
	"math/rand"
	"testing"
)

func TestWindowedFullWindowEqualsReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 60))
		n1 := 1 + rng.Intn(8)
		n2 := 1 + rng.Intn(8)
		p := newTestProblem(t, seed+60, n1, n2)
		ref := Solve(p, VariantReference, Config{})
		w := SolveWindowed(p, n1+5, n2+5, Config{Workers: 2})
		for i1 := 0; i1 < n1; i1++ {
			for j1 := i1; j1 < n1; j1++ {
				for i2 := 0; i2 < n2; i2++ {
					for j2 := i2; j2 < n2; j2++ {
						if w.At(i1, j1, i2, j2) != ref.At(i1, j1, i2, j2) {
							t.Fatalf("seed %d: W[%d,%d,%d,%d] = %v, ref %v",
								seed, i1, j1, i2, j2, w.At(i1, j1, i2, j2), ref.At(i1, j1, i2, j2))
						}
					}
				}
			}
		}
	}
}

func TestWindowedCellsEqualFullTable(t *testing.T) {
	// The key banding property: an in-window cell's value is identical to
	// the unrestricted table's value, because the recurrence for an
	// in-window cell only ever reads in-window cells.
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n1 := 4 + rng.Intn(7)
		n2 := 4 + rng.Intn(7)
		w1 := 1 + rng.Intn(n1)
		w2 := 1 + rng.Intn(n2)
		p := newTestProblem(t, seed+70, n1, n2)
		full := Solve(p, VariantBase, Config{})
		w := SolveWindowed(p, w1, w2, Config{Workers: 3})
		for i1 := 0; i1 < n1; i1++ {
			for j1 := i1; j1 < n1 && j1-i1 < w1; j1++ {
				for i2 := 0; i2 < n2; i2++ {
					for j2 := i2; j2 < n2 && j2-i2 < w2; j2++ {
						if w.At(i1, j1, i2, j2) != full.At(i1, j1, i2, j2) {
							t.Fatalf("seed %d W=(%d,%d): cell (%d,%d,%d,%d) = %v, full %v",
								seed, w1, w2, i1, j1, i2, j2, w.At(i1, j1, i2, j2), full.At(i1, j1, i2, j2))
						}
					}
				}
			}
		}
	}
}

func TestWindowedMemorySavings(t *testing.T) {
	p := newTestProblem(t, 80, 24, 24)
	full := NewFTable(24, 24, MapPacked)
	w := newTable[float32](nil, 24, 24, 4, 4, MapPacked, false)
	if w.Bytes() >= full.Bytes() {
		t.Errorf("windowed table (%d B) should be smaller than full (%d B)", w.Bytes(), full.Bytes())
	}
	_ = p
}

func TestWindowedBest(t *testing.T) {
	p := newTestProblem(t, 81, 10, 10)
	w := SolveWindowed(p, 4, 4, Config{})
	v, i1, j1, i2, j2 := w.BestWithin(w.W1, w.W2)
	if !w.InWindow(i1, j1, i2, j2) {
		t.Fatalf("Best returned out-of-window cell (%d,%d,%d,%d)", i1, j1, i2, j2)
	}
	if got := w.At(i1, j1, i2, j2); got != v {
		t.Errorf("Best value %v != cell value %v", v, got)
	}
	// Best is the max: no stored cell exceeds it.
	for a1 := 0; a1 < 10; a1++ {
		for b1 := a1; b1 < 10 && b1-a1 < w.W1; b1++ {
			for a2 := 0; a2 < 10; a2++ {
				for b2 := a2; b2 < 10 && b2-a2 < w.W2; b2++ {
					if w.At(a1, b1, a2, b2) > v {
						t.Fatalf("cell (%d,%d,%d,%d) exceeds Best", a1, b1, a2, b2)
					}
				}
			}
		}
	}
}

func TestWindowedBestMatchesFullScan(t *testing.T) {
	p := newTestProblem(t, 83, 9, 11)
	full := Solve(p, VariantHybrid, Config{})
	w := SolveWindowed(p, 3, 5, Config{Workers: 2})
	v, _, _, _, _ := w.BestWithin(w.W1, w.W2)
	var want float32 = -1
	for i1 := 0; i1 < 9; i1++ {
		for j1 := i1; j1 < 9 && j1-i1 < 3; j1++ {
			for i2 := 0; i2 < 11; i2++ {
				for j2 := i2; j2 < 11 && j2-i2 < 5; j2++ {
					if x := full.At(i1, j1, i2, j2); x > want {
						want = x
					}
				}
			}
		}
	}
	if v != want {
		t.Errorf("windowed Best = %v, full-table scan = %v", v, want)
	}
}

func TestWindowedTraceback(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 400))
		n1 := 4 + rng.Intn(6)
		n2 := 4 + rng.Intn(6)
		w1 := 2 + rng.Intn(3)
		w2 := 2 + rng.Intn(3)
		p := newTestProblem(t, seed+90, n1, n2)
		w := SolveWindowed(p, w1, w2, Config{Workers: 2})
		v, i1, j1, i2, j2 := w.BestWithin(w.W1, w.W2)
		st := TracebackFrom(p, w, i1, j1, i2, j2)
		if got := st.Weight(p); got != v {
			t.Errorf("seed %d: windowed traceback weight %v != best %v", seed, got, v)
		}
		// Recovered pairs stay inside the traced intervals.
		for _, pr := range st.Intra1 {
			if pr.I < i1 || pr.J > j1 {
				t.Errorf("intra1 pair %v escapes [%d,%d]", pr, i1, j1)
			}
		}
		for _, pr := range st.Inter {
			if pr.I1 < i1 || pr.I1 > j1 || pr.I2 < i2 || pr.I2 > j2 {
				t.Errorf("inter pair %v escapes window cell", pr)
			}
		}
	}
}

func TestWindowedTracebackPanicsOutOfWindow(t *testing.T) {
	p := newTestProblem(t, 91, 6, 6)
	w := SolveWindowed(p, 2, 2, Config{})
	defer func() {
		if recover() == nil {
			t.Error("out-of-window traceback did not panic")
		}
	}()
	TracebackFrom(p, w, 0, 5, 0, 5)
}

func TestWindowClamping(t *testing.T) {
	w := newTable[float32](nil, 5, 5, 100, 100, MapPacked, false)
	if w.W1 != 5 || w.W2 != 5 {
		t.Errorf("windows not clamped: %d %d", w.W1, w.W2)
	}
}

// (The name predates the banded table's merge into FTable.)
func TestNewWTablePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	newTable[float32](nil, 5, 5, 0, 3, MapPacked, false)
}
