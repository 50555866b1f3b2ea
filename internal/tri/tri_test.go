package tri

import "testing"

func TestCount(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {2, 3}, {3, 6}, {10, 55}}
	for _, c := range cases {
		if got := Count(c.n); got != c.want {
			t.Errorf("Count(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCountPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Count(-1) did not panic")
		}
	}()
	Count(-1)
}

func TestIndexBijection(t *testing.T) {
	for n := 1; n <= 20; n++ {
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				idx := Index(i, j, n)
				if idx < 0 || idx >= Count(n) {
					t.Fatalf("Index(%d,%d,%d) = %d out of [0,%d)", i, j, n, idx, Count(n))
				}
				if seen[idx] {
					t.Fatalf("Index(%d,%d,%d) = %d collides", i, j, n, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != Count(n) {
			t.Fatalf("n=%d: covered %d of %d slots", n, len(seen), Count(n))
		}
	}
}

func TestIndexRowMajorOrder(t *testing.T) {
	// Within a row, consecutive j must be consecutive slots.
	n := 9
	for i := 0; i < n; i++ {
		for j := i; j < n-1; j++ {
			if Index(i, j+1, n) != Index(i, j, n)+1 {
				t.Fatalf("row %d not contiguous at j=%d", i, j)
			}
		}
	}
}

func TestIndexPanics(t *testing.T) {
	for _, c := range [][3]int{{-1, 0, 4}, {2, 1, 4}, {0, 4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%d,%d,%d) did not panic", c[0], c[1], c[2])
				}
			}()
			Index(c[0], c[1], c[2])
		}()
	}
}

func TestRowStartRowLen(t *testing.T) {
	n := 7
	for i := 0; i < n; i++ {
		if got := RowStart(i, n); got != Index(i, i, n) {
			t.Errorf("RowStart(%d) = %d, want %d", i, got, Index(i, i, n))
		}
	}
	// Rows tile the triangle exactly: row i holds n-i cells, and the row past
	// the last starts where the triangle ends.
	for i := 0; i < n; i++ {
		if got := RowStart(i+1, n) - RowStart(i, n); got != n-i {
			t.Errorf("row %d spans %d cells, want %d", i, got, n-i)
		}
	}
	if RowStart(n, n) != Count(n) {
		t.Errorf("rows cover %d cells, want %d", RowStart(n, n), Count(n))
	}
}

func TestDiagCellsCoverTriangle(t *testing.T) {
	n := 8
	seen := make(map[[2]int]bool)
	for d := 0; d < n; d++ {
		count := 0
		DiagCells(d, n, func(i, j int) {
			if j-i != d {
				t.Fatalf("DiagCells(%d) visited (%d,%d)", d, i, j)
			}
			seen[[2]int{i, j}] = true
			count++
		})
		if count != n-d {
			t.Fatalf("DiagCells(%d) visited %d cells, want %d", d, count, n-d)
		}
	}
	if len(seen) != Count(n) {
		t.Fatalf("diagonals cover %d cells, want %d", len(seen), Count(n))
	}
}

// orderRespectsSubintervals checks that an ordering visits every strict
// sub-interval of (i,j) before (i,j) itself — the dependence requirement
// shared by the diagonal and bottom-up schedules.
func orderRespectsSubintervals(t *testing.T, name string, visit func(n int, f func(i, j int))) {
	t.Helper()
	n := 10
	rank := make(map[[2]int]int)
	k := 0
	visit(n, func(i, j int) {
		rank[[2]int{i, j}] = k
		k++
	})
	if k != Count(n) {
		t.Fatalf("%s visited %d cells, want %d", name, k, Count(n))
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			for a := i; a <= j; a++ {
				for b := a; b <= j; b++ {
					if b-a < j-i && rank[[2]int{a, b}] >= rank[[2]int{i, j}] {
						t.Fatalf("%s: (%d,%d) not before (%d,%d)", name, a, b, i, j)
					}
				}
			}
		}
	}
}

func TestCellsDiagonalOrderValid(t *testing.T) {
	orderRespectsSubintervals(t, "diagonal", Cells)
}

func TestMapsAreInjective(t *testing.T) {
	for _, m := range []Map{BoxMap{N: 11}, PackedMap{N: 11}} {
		seen := make(map[int]bool)
		for i := 0; i < 11; i++ {
			for j := i; j < 11; j++ {
				at := m.At(i, j)
				if at < 0 || at >= m.Size() {
					t.Fatalf("%s.At(%d,%d) = %d out of [0,%d)", m.Name(), i, j, at, m.Size())
				}
				if seen[at] {
					t.Fatalf("%s.At(%d,%d) collides", m.Name(), i, j)
				}
				seen[at] = true
			}
		}
	}
}

func TestMapSizes(t *testing.T) {
	if got := (BoxMap{N: 6}).Size(); got != 36 {
		t.Errorf("BoxMap size = %d", got)
	}
	if got := (PackedMap{N: 6}).Size(); got != 21 {
		t.Errorf("PackedMap size = %d", got)
	}
}

func TestRowSliceConsistent(t *testing.T) {
	for _, m := range []Map{BoxMap{N: 9}, PackedMap{N: 9}} {
		for i := 0; i < 9; i++ {
			base, stride := m.RowSlice(i)
			if stride != 1 {
				t.Fatalf("%s.RowSlice(%d) stride = %d, want 1", m.Name(), i, stride)
			}
			for j := i; j < 9; j++ {
				if got := base + stride*j; got != m.At(i, j) {
					t.Fatalf("%s row %d: RowSlice addresses %d for j=%d, At gives %d",
						m.Name(), i, got, j, m.At(i, j))
				}
			}
		}
	}
}

func TestBoxMapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BoxMap.At below diagonal did not panic")
		}
	}()
	BoxMap{N: 4}.At(2, 1)
}

func TestBandMapMatchesPackedWhenWide(t *testing.T) {
	n := 9
	b := BandMap{N: n, W: n}
	p := PackedMap{N: n}
	if b.Size() != p.Size() {
		t.Fatalf("wide band size %d != packed %d", b.Size(), p.Size())
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if b.At(i, j) != p.At(i, j) {
				t.Fatalf("wide BandMap.At(%d,%d) = %d, packed %d", i, j, b.At(i, j), p.At(i, j))
			}
		}
	}
}

func TestBandMapInjectiveAndDense(t *testing.T) {
	for _, c := range []struct{ n, w int }{{8, 3}, {8, 1}, {8, 8}, {8, 20}, {5, 4}, {1, 1}} {
		m := BandMap{N: c.n, W: c.w}
		seen := make(map[int]bool)
		count := 0
		for i := 0; i < c.n; i++ {
			for j := i; j < c.n && j-i < c.w; j++ {
				at := m.At(i, j)
				if at < 0 || at >= m.Size() {
					t.Fatalf("BandMap(%d,%d).At(%d,%d) = %d out of [0,%d)", c.n, c.w, i, j, at, m.Size())
				}
				if seen[at] {
					t.Fatalf("BandMap(%d,%d).At(%d,%d) collides", c.n, c.w, i, j)
				}
				seen[at] = true
				count++
			}
		}
		if count != m.Size() {
			t.Fatalf("BandMap(%d,%d): %d cells but Size %d", c.n, c.w, count, m.Size())
		}
	}
}

func TestBandMapRowSlice(t *testing.T) {
	m := BandMap{N: 10, W: 4}
	for i := 0; i < 10; i++ {
		base, stride := m.RowSlice(i)
		if stride != 1 {
			t.Fatalf("stride = %d", stride)
		}
		for j := i; j < 10 && j-i < 4; j++ {
			if base+j != m.At(i, j) {
				t.Fatalf("RowSlice row %d wrong at j=%d", i, j)
			}
		}
	}
}

func TestBandMapPanicsOutsideBand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BandMap.At outside band did not panic")
		}
	}()
	BandMap{N: 10, W: 3}.At(0, 3)
}

func TestMapNames(t *testing.T) {
	if (BoxMap{N: 3}).Name() != "box" || (PackedMap{N: 3}).Name() != "packed" || (BandMap{N: 3, W: 2}).Name() != "band" {
		t.Error("map names wrong")
	}
}
