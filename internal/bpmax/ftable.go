package bpmax

import (
	"fmt"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/semiring"
	"github.com/bpmax-go/bpmax/internal/tri"
)

// MapKind selects the inner-triangle memory map (the paper's Fig 10
// comparison).
type MapKind int

const (
	// MapBox is option 1: each inner triangle occupies its N2×N2 bounding
	// box. ~2× the memory, but rows are plain row-major slices. The paper
	// found this option always faster; it is the default.
	MapBox MapKind = iota
	// MapPacked is option 2: (i2, j2) -> (i2, j2-i2) packed rows using
	// exactly N2(N2+1)/2 slots per triangle (the quarter-space map).
	MapPacked
)

// String returns the benchmark label for the map kind.
func (k MapKind) String() string {
	switch k {
	case MapBox:
		return "box"
	case MapPacked:
		return "packed"
	}
	return fmt.Sprintf("MapKind(%d)", int(k))
}

// mapFor returns the inner map of a table whose rows store j2-i2 < w2. The
// packed map cut to the band is tri.BandMap (w2 >= n2 is the full packed
// layout); the bounding box keeps its shape and simply leaves the cells
// beyond the band unused.
func (k MapKind) mapFor(n2, w2 int) tri.Map {
	switch k {
	case MapBox:
		return tri.BoxMap{N: n2}
	case MapPacked:
		return tri.BandMap{N: n2, W: w2}
	}
	panic(fmt.Sprintf("bpmax: unknown MapKind %d", int(k)))
}

// tableElems returns the element count of an n1 × n2 table under the given
// map that stores the band j1-i1 < w1, j2-i2 < w2 (windows clamped to the
// lengths): what newTable allocates and what the estimates charge, without
// allocating anything. Non-positive sizes or windows count 0.
func tableElems(n1, n2, w1, w2 int, kind MapKind) int {
	if n1 <= 0 || n2 <= 0 || w1 <= 0 || w2 <= 0 {
		return 0
	}
	w1, w2 = min(w1, n1), min(w2, n2)
	return tri.BandMap{N: n1, W: w1}.Size() * kind.mapFor(n2, w2).Size()
}

// elemBytes returns the storage size of one table element.
func elemBytes[T semiring.Scalar]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// FTable is the float32 instantiation — the historical name used by every
// max-plus call site, the traceback, and the result cache.
type FTable = FTableOf[float32]

// FTableOf stores F[i1,j1,i2,j2] for 0<=i1<=j1<N1, 0<=i2<=j2<N2 inside the
// band j1-i1 < W1, j2-i2 < W2: a packed triangle of inner triangles. A full
// table is the band W = N. A narrower band is the windowed BPMax formulation
// Gildemaster et al. used to fit the GPU's memory — storage drops from
// Θ(N1²N2²) to Θ(N1·W1·N2·W2) — and because the recurrence for an in-band
// cell reads only in-band cells, every stored value equals the full table's
// at the same indices. The inner map is pluggable; the outer map is always
// packed row-major (outer triangles are touched block-at-a-time, so
// bounding-box padding would buy nothing there). The element type is the
// solving semiring's scalar: float32 for max-plus, float64 for the partition
// fills.
//
// A table knows the domain its cells are stored in (dom): At and Block hand
// out stored cells, LogAt the value they stand for. Max-plus and log-domain
// tables store the values themselves; a scaled sum-product table does not,
// so partition readers go through LogAt.
type FTableOf[T semiring.Scalar] struct {
	N1, N2 int
	W1, W2 int // the stored band, clamped to (N1, N2)
	Inner  tri.Map
	outer  tri.BandMap
	isize  int
	// rowOff[i2] is Inner's base for row i2: cell (i2, j2) of a block lives
	// at block[rowOff[i2]+j2]. Cached so the row helpers and the kernels'
	// Sweep address rows without a call through the Inner interface, and so
	// one Sweep body serves every memory map.
	rowOff []int
	data   []T
	dom    domain
	// refilled marks a partition table filled in the log domain because the
	// scaled fill left its range guard's window (see SolvePartitionContext).
	refilled bool
	// kind remembers which MapKind built Inner so a pooled shell can reuse
	// the boxed map when the shape repeats; pl is the owning pool (nil for
	// fresh allocations).
	kind MapKind
	pl   *Pool
}

// NewFTable allocates a zeroed full float32 table.
func NewFTable(n1, n2 int, kind MapKind) *FTable {
	return newTable[float32](nil, n1, n2, n1, n2, kind, false)
}

// newTable is the one table constructor: an n1 × n2 table storing the band
// (w1, w2), zeroed, drawn from pl's arenas when pl is non-nil (so the result
// is indistinguishable from a fresh allocation; Release returns it) — with
// seeded, uncleared, for a fill that writes every cell before it reads one.
func newTable[T semiring.Scalar](pl *Pool, n1, n2, w1, w2 int, kind MapKind, seeded bool) *FTableOf[T] {
	var ar *arena[T]
	var f *FTableOf[T]
	if pl != nil {
		ar = arenaOf[T](pl)
		f, _ = ar.tables.Get().(*FTableOf[T])
		count(&pl.ftableHits, &pl.ftableMisses, f != nil)
	}
	if f == nil {
		f = &FTableOf[T]{}
	}
	f.setShape(n1, n2, w1, w2, kind)
	f.dom, f.refilled = domain{}, false
	if n := f.outer.Size() * f.isize; ar != nil && seeded {
		f.data, f.pl = ar.buf.GetUnzeroed(n), pl
	} else if ar != nil {
		f.data, f.pl = ar.buf.Get(n), pl
	} else {
		f.data = make([]T, n)
	}
	return f
}

// setShape sets everything about the table but its storage, clamping the
// band to the lengths. A recycled shell keeps its inner map and row offsets
// when the shape repeats — the common case in a screening batch — so the
// steady state allocates neither.
func (f *FTableOf[T]) setShape(n1, n2, w1, w2 int, kind MapKind) {
	if w1 <= 0 || w2 <= 0 {
		panic(fmt.Sprintf("bpmax: invalid windows (%d, %d)", w1, w2))
	}
	w1, w2 = min(w1, n1), min(w2, n2)
	if f.Inner == nil || f.N2 != n2 || f.W2 != w2 || f.kind != kind {
		f.Inner = kind.mapFor(n2, w2)
		f.isize = f.Inner.Size()
		f.kind = kind
		f.rowOff = rowOffsets(f.Inner, n2, f.rowOff)
	}
	f.outer = tri.BandMap{N: n1, W: w1}
	f.N1, f.N2, f.W1, f.W2 = n1, n2, w1, w2
}

// rowOffsets returns the base of each of m's n rows, reusing into's storage.
func rowOffsets(m tri.Map, n int, into []int) []int {
	if cap(into) < n {
		into = make([]int, 0, n)
	}
	into = into[:0]
	for i := 0; i < n; i++ {
		base, _ := m.RowSlice(i)
		into = append(into, base)
	}
	return into
}

// Release returns a pooled table's storage and shell to its pool. It is
// idempotent and a no-op for unpooled tables; the table must not be used
// after Release.
func (f *FTableOf[T]) Release() {
	if f == nil || f.pl == nil {
		return
	}
	ar := arenaOf[T](f.pl)
	f.pl = nil
	ar.buf.Put(f.data)
	f.data = nil
	ar.tables.Put(f)
}

// InWindow reports whether the cell is stored.
func (f *FTableOf[T]) InWindow(i1, j1, i2, j2 int) bool {
	return j1-i1 < f.W1 && j2-i2 < f.W2
}

// Block returns the storage of inner triangle (i1, j1); j1-i1 < W1
// required. Index cell (i2, j2) within it via Inner.At or Row.
func (f *FTableOf[T]) Block(i1, j1 int) []T {
	o := f.outer.At(i1, j1)
	return f.data[o*f.isize : (o+1)*f.isize : (o+1)*f.isize]
}

// rowHi returns the exclusive upper bound of the j2 stored for row i2 — N2
// on a full table. It never decreases with i2, so every row below i2 reaches
// at least as far right as row i2 does.
func (f *FTableOf[T]) rowHi(i2 int) int {
	return min(i2+f.W2, f.N2)
}

// Row returns the slice of block such that row[j2] addresses cell (i2, j2)
// for j2 in [i2, rowHi(i2)). The returned slice is indexed by absolute j2 —
// every provided map is row-affine with stride 1, so this is a reslice, not
// a copy.
func (f *FTableOf[T]) Row(block []T, i2 int) []T {
	base := f.rowOff[i2]
	return block[base : base+f.rowHi(i2)]
}

// At returns F[i1,j1,i2,j2] for a stored cell (all indices in-triangle and
// in-band).
// Boundary cases (empty intervals) are the Problem's job, not the table's.
func (f *FTableOf[T]) At(i1, j1, i2, j2 int) T {
	return f.Block(i1, j1)[f.Inner.At(i2, j2)]
}

// LogAt returns the value stored cell (i1,j1,i2,j2) stands for, in the
// table's own ⊗ scale: the cell itself for max-plus and log-domain tables,
// log F = log(cell) + σ₁·(j1-i1+1) + σ₂·(j2-i2+1) for a scaled one. It is
// the accessor partition readers use — the conversion happens on read, never
// as a pass over the table.
func (f *FTableOf[T]) LogAt(i1, j1, i2, j2 int) float64 {
	return f.dom.logOf(float64(f.At(i1, j1, i2, j2)), j1-i1+1, j2-i2+1)
}

// Scaled reports whether the table stores scaled linear-domain cells.
func (f *FTableOf[T]) Scaled() bool { return f.dom.scaled }

// GuardRefilled reports whether this table is the log-domain refill of a
// scaled fill whose range guard tripped.
func (f *FTableOf[T]) GuardRefilled() bool { return f.refilled }

// Set stores F[i1,j1,i2,j2].
func (f *FTableOf[T]) Set(i1, j1, i2, j2 int, v T) {
	f.Block(i1, j1)[f.Inner.At(i2, j2)] = v
}

// newAlgTable allocates the table a fill over algebra view a writes, storing
// the band (w1, w2) — (N1, N2) for a full fill — from pl's arenas when pl is
// non-nil (uncleared, with seeded), stamped with the view's domain.
func newAlgTable[T semiring.Scalar](p *Problem, a *alg[T], pl *Pool, w1, w2 int, kind MapKind, seeded bool) *FTableOf[T] {
	f := newTable[T](pl, p.N1, p.N2, w1, w2, kind, seeded)
	f.dom = a.dom
	return f
}

// BestWithin returns the maximum stored value over the interval pairs with
// spans j1-i1 < s1 and j2-i2 < s2 (and inside the band) and the first cell
// achieving it in (i1, j1, i2, j2) order: the "best local interaction" a
// windowed screen reports, and Result.BestLocal on any fold.
func (f *FTableOf[T]) BestWithin(s1, s2 int) (v T, i1, j1, i2, j2 int) {
	s1, s2 = min(s1, f.W1), min(s2, f.W2)
	v = -1
	for a1 := 0; a1 < f.N1; a1++ {
		for b1 := a1; b1 < f.N1 && b1-a1 < s1; b1++ {
			blk := f.Block(a1, b1)
			for a2 := 0; a2 < f.N2; a2++ {
				row := f.Row(blk, a2)
				hi := min(a2+s2, f.N2)
				for b2 := a2; b2 < hi; b2++ {
					if row[b2] > v {
						v, i1, j1, i2, j2 = row[b2], a1, b1, a2, b2
					}
				}
			}
		}
	}
	return v, i1, j1, i2, j2
}

// Bytes returns the storage footprint in bytes.
func (f *FTableOf[T]) Bytes() int64 { return int64(len(f.data)) * elemBytes[T]() }

// at is the recurrence's full F accessor over a filled table: it resolves
// the empty-interval base cases through the problem's S tables. j1 < i1
// (empty seq1 interval) yields S²[i2,j2]; j2 < i2 yields S¹[i1,j1].
func (p *Problem) at(f *FTable, i1, j1, i2, j2 int) float32 {
	if j1 < i1 {
		return p.S2.At(i2, j2)
	}
	if j2 < i2 {
		return p.S1.At(i1, j1)
	}
	return f.At(i1, j1, i2, j2)
}
