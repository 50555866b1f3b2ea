// Package tri implements the triangular index algebra underlying BPMax's
// "triangle of triangles" F-table.
//
// Throughout, a triangle over n points is the set of closed intervals
// {(i,j) : 0 <= i <= j < n}. BPMax's 4-D table F[i1,j1,i2,j2] is a triangle
// over N1 of inner triangles over N2. The paper (Fig 10) compares two inner
// memory maps — option 1 keeps rows of the bounding box ((i2,j2) -> i2*N2+j2)
// and option 2 packs rows densely ((i2,j2) -> (i2, j2-i2)); both are provided
// here, together with the row-major packed map used for the outer triangle.
package tri

import "fmt"

// Count returns the number of cells in a triangle over n points:
// n*(n+1)/2.
func Count(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("tri: negative size %d", n))
	}
	return n * (n + 1) / 2
}

// Index maps (i,j) with 0 <= i <= j < n to its packed row-major position:
// cells are laid out row by row, each row i holding the n-i intervals that
// start at i. The map is a bijection onto [0, Count(n)).
func Index(i, j, n int) int {
	if i < 0 || j < i || j >= n {
		panic(fmt.Sprintf("tri: Index(%d, %d) out of triangle of size %d", i, j, n))
	}
	return RowStart(i, n) + (j - i)
}

// RowStart returns the packed position of cell (i,i), i.e. the start of
// row i: i*n - i*(i-1)/2.
func RowStart(i, n int) int {
	return i*n - i*(i-1)/2
}

// DiagCells calls f(i, j) for every cell on anti-diagonal d = j-i, in
// increasing i. BPMax's coarse-grain schedule distributes exactly these
// cells (the independent inner triangles of one wavefront) across workers.
func DiagCells(d, n int, f func(i, j int)) {
	for i := 0; i+d < n; i++ {
		f(i, i+d)
	}
}

// Cells calls f(i, j) for every cell of the triangle in diagonal order
// (d = 0..n-1, then increasing i), the canonical dynamic-programming
// evaluation order in which every strict sub-interval precedes its
// super-intervals.
func Cells(n int, f func(i, j int)) {
	for d := 0; d < n; d++ {
		DiagCells(d, n, f)
	}
}

// Map is a memory map for one triangle: an injection from triangle cells
// into [0, Size()).
type Map interface {
	// Size returns the number of scalar slots the map occupies.
	Size() int
	// At returns the slot of cell (i, j); i <= j required.
	At(i, j int) int
	// RowSlice returns (base, stride) such that cell (i, j) lives at
	// base + stride*j for the map's row i. Every Map in this package is
	// row-affine, which is what lets the kernels stream rows.
	RowSlice(i int) (base, stride int)
	// Name identifies the map in benchmark output.
	Name() string
}

// BoxMap is memory-map option 1 of the paper (Fig 10): the full n×n
// bounding box with only the upper triangle used. Rows are contiguous with
// stride 1, wasting ~half the space but giving perfectly streaming rows —
// the paper found this option always faster.
type BoxMap struct{ N int }

// Size returns n*n.
func (m BoxMap) Size() int { return m.N * m.N }

// At returns i*n + j.
func (m BoxMap) At(i, j int) int {
	if i < 0 || j < i || j >= m.N {
		panic(fmt.Sprintf("tri: BoxMap.At(%d, %d) out of triangle of size %d", i, j, m.N))
	}
	return i*m.N + j
}

// RowSlice reports row i starting at i*n with unit stride.
func (m BoxMap) RowSlice(i int) (int, int) { return i * m.N, 1 }

// Name returns "box".
func (m BoxMap) Name() string { return "box" }

// PackedMap is memory-map option 2 of the paper: (i2, j2) -> (i2, j2-i2)
// packed densely row by row. It uses exactly Count(n) slots (the quarter-
// space optimization) at the cost of rows that start at varying offsets.
type PackedMap struct{ N int }

// Size returns Count(n).
func (m PackedMap) Size() int { return Count(m.N) }

// At returns the packed slot of (i, j).
func (m PackedMap) At(i, j int) int { return Index(i, j, m.N) }

// RowSlice reports row i starting at RowStart(i) - i so that
// base + 1*j addresses cell (i, j); stride stays 1, rows remain streamable.
func (m PackedMap) RowSlice(i int) (int, int) { return RowStart(i, m.N) - i, 1 }

// Name returns "packed".
func (m PackedMap) Name() string { return "packed" }

// BandMap stores only the cells with j-i < W (intervals shorter than the
// window), packed row by row. It backs the windowed BPMax variant, which
// reproduces the memory-bounded GPU formulation of Gildemaster et al.
// W >= N degenerates to PackedMap's layout.
type BandMap struct{ N, W int }

// Size returns the number of stored cells: sum_i min(W, N-i).
func (m BandMap) Size() int {
	if m.W >= m.N {
		return Count(m.N)
	}
	// Rows 0..N-W hold W cells; the last W-1 rows shrink 1 by 1.
	full := m.N - m.W + 1
	return full*m.W + Count(m.W-1)
}

// rowStart returns the slot of cell (i, i).
func (m BandMap) rowStart(i int) int {
	if m.W >= m.N {
		return RowStart(i, m.N)
	}
	full := m.N - m.W + 1
	if i <= full {
		return i * m.W
	}
	// Row i > full starts after all full rows plus the shrunk rows before it.
	k := i - full                      // number of shrunk rows before row i
	return full*m.W + k*m.W - Count(k) // sum of (W-1)+(W-2)+...
}

// At returns the slot of (i, j); it panics when j-i >= W (outside the band)
// or outside the triangle.
func (m BandMap) At(i, j int) int {
	if i < 0 || j < i || j >= m.N || j-i >= m.W {
		panic(fmt.Sprintf("tri: BandMap.At(%d, %d) outside band W=%d of size %d", i, j, m.W, m.N))
	}
	return m.rowStart(i) + (j - i)
}

// RowSlice reports row i with base such that base + j addresses (i, j).
func (m BandMap) RowSlice(i int) (int, int) { return m.rowStart(i) - i, 1 }

// Name returns "band".
func (m BandMap) Name() string { return "band" }
