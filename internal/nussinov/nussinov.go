// Package nussinov computes the weighted single-strand folding tables
// S[i,j] used by BPMax (its S¹ and S² inputs) and, standalone, the classic
// Nussinov secondary-structure prediction.
//
// S[i,j] is the maximum total weight of a non-crossing set of base pairs
// within the closed subsequence [i, j]. The recurrence is
//
//	S[i,j] = max( S[i+1,j], S[i,j-1],
//	              S[i+1,j-1] + score(i,j),
//	              max_{k=i..j-1} S[i,k] + S[k+1,j] )
//
// with S[i,j] = 0 when j <= i. Row i depends only on itself and the rows
// below it, so the table fills bottom-up with the split scan turned into the
// paper's unit-stride stream y = max(a + x, y) over rows (fill.go), and from
// SequentialCutoff up FillContext cuts that into a triangle of tiles on a
// padded row pitch, mirroring how the paper schedules S¹/S² "before
// scheduling any other variables". There is one table type (GTable; Table is
// its float32 instantiation) and one build call (FillContext).
package nussinov

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// ScoreFunc returns the pairing weight for positions i < j, or a very
// large negative value (score.NegInf) when the pairing is forbidden.
type ScoreFunc func(i, j int) float32

// GTable holds S over a bounding-box memory map (option 1 of the paper's
// Fig 10): row i is the N cells from Data()[i*Pitch()], so BPMax's kernels
// can stream rows of S², at a pitch that is N below SequentialCutoff and
// padded (PitchOf) from it up. It is
// the one single-strand table type, generic over the scalar of the semiring
// that filled it: after a fill the lower triangle holds One — the empty
// interval — and the diagonal the weight of one unpaired base. The float32
// max-plus instantiation is Table, the S¹/S² of an interaction fold; the
// float64 log-sum-exp instantiation computes the log of the strand's
// derivation-weighted Boltzmann sum, and the float64 sum-product
// instantiation the same sum in the linear domain — the single-strand
// partition substrates of the BPPart fill.
type GTable[T semiring.Scalar] struct {
	N     int
	pitch int // row stride of data
	data  []T // data[i*pitch+j] = S[i,j] for i <= j < N
	one   T   // the filling semiring's One: S of an empty interval
	// live is the rows' live words of the last closure fill (Live), empty
	// after a walk; cl is the closure form's scratch. Both are kept across
	// Reset so a pooled table's refill allocates nothing; closed records the
	// form of the last fill.
	live   []uint64
	cl     closure[T]
	closed bool
}

// Table is the max-plus S table. Its zero value is an empty table whose
// empty intervals read 0, max-plus's One, before any fill.
type Table = GTable[float32]

// NewGTable allocates a zeroed table for n positions; FillContext writes the
// boundary cells its semiring needs.
func NewGTable[T semiring.Scalar](n int) *GTable[T] {
	t := &GTable[T]{}
	t.Reset(n)
	return t
}

// At returns S[i,j]; intervals with j < i are the filling semiring's One by
// definition.
func (t *GTable[T]) At(i, j int) T {
	if j < i {
		return t.one
	}
	if i < 0 || j >= t.N {
		panic(fmt.Sprintf("nussinov: At(%d, %d) out of table of size %d", i, j, t.N))
	}
	return t.data[i*t.pitch+j]
}

// Row returns row i, the N cells (i, 0..N-1) of the bounding box without the
// pitch's padding; only j >= i are meaningful. Callers must not modify it.
func (t *GTable[T]) Row(i int) []T { return t.data[i*t.pitch : i*t.pitch+t.N] }

// Pitch is the row stride of Data: row i starts at Data()[i*Pitch()].
func (t *GTable[T]) Pitch() int { return t.pitch }

// Data exposes the table's backing storage, N rows of Pitch() cells (S[i,j]
// at i*Pitch()+j): the solver's algebra bundles stream rows out of it, and
// the Four-Russians comparator fills a Table through it. Every other caller
// must treat it as read-only.
func (t *GTable[T]) Data() []T { return t.data }

// Live returns the rows' live words of the table's last fill, ⌈N/64⌉ a row
// (row i's from Live()[i*⌈N/64⌉]), empty unless the fill was closed: bit j of
// row i is set where no split m in [i, j) reaches S[i, j] — R2's word, the
// diagonal's bit set and every bit outside [i, N) clear (docs/ALGORITHM.md §9,
// "The word"). They belong to the table: a fold's R1 reads S²'s. Callers must
// not modify them.
func (t *GTable[T]) Live() []uint64 { return t.live }

// liveW is the live words a row of an n-position table takes.
func liveW(n int) int { return (n + 63) / 64 }

// Clone returns an independent deep copy of t, its live words too. Cached
// substrate tables are cloned out of pooled problems, whose own storage is
// reset on reuse.
func (t *GTable[T]) Clone() *GTable[T] {
	return &GTable[T]{N: t.N, pitch: t.pitch, data: slices.Clone(t.data), one: t.one, live: slices.Clone(t.live), closed: t.closed}
}

// Bytes returns the table's footprint: N·Pitch() cells, its live words and
// the tile bit-sets its last closure fill kept (LiveBytes); a Clone keeps the
// words and drops the bit-sets.
func (t *GTable[T]) Bytes() int64 {
	var z T
	return int64(len(t.data))*int64(unsafe.Sizeof(z)) + int64(len(t.live)+len(t.cl.tiles))*8
}

// PitchOf is the row stride, in cells, of an n-position table of width-byte
// cells: n below SequentialCutoff, else the smallest odd multiple of 256
// bytes (one AVX-512 register block) holding n, so that a column strip of
// the rows spreads over the cache sets a 4 KiB stride would pile it into.
func PitchOf(n, width int) int { return pitch(n, SequentialCutoff, width) }

func pitch(n, cutoff, width int) int {
	if blk := 256 / width; n >= cutoff {
		return ((n+blk-1)/blk | 1) * blk
	}
	return n
}

// layout sizes t for n positions at the pitch cutoff gives, keeping its
// storage, cells as they were, where the capacity allows.
func (t *GTable[T]) layout(n, cutoff int) {
	t.N, t.pitch = n, pitch(n, cutoff, int(unsafe.Sizeof(t.one)))
	if need := n * t.pitch; cap(t.data) >= need {
		t.data = t.data[:need]
		return
	}
	t.data = make([]T, n*t.pitch)
}

// Reset prepares t for reuse at size n: storage is kept when its capacity
// allows (grown otherwise), unzeroed — FillContext writes every cell it
// reads — so a reused table fills to what a fresh NewGTable(n) fills to.
func (t *GTable[T]) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("nussinov: negative size %d", n))
	}
	t.layout(n, SequentialCutoff)
}

// PairRows gives a fill its pair weights a row at a time, w(i, lo, hi)[j-lo]
// pairing i with j; tiles that run at once ask for distinct columns.
type PairRows[T semiring.Scalar] func(i, lo, hi int) []T

// ScoreRows adapts a per-cell score to PairRows over an n-position strand,
// filling one scratch row by absolute column, score called once a cell.
func ScoreRows[T semiring.Scalar](n int, score func(i, j int) T) PairRows[T] {
	row := make([]T, n)
	return func(i, lo, hi int) []T {
		for j := lo; j < hi; j++ {
			row[j] = score(i, j)
		}
		return row[lo:hi]
	}
}

// FillContext is the one build call: it runs the streamed fill (fill.go)
// over a fresh or Reset table, O(n³) time in all, and alone chooses its
// layout and schedule: below SequentialCutoff a dense table, row by row on
// the calling goroutine; from it up a padded pitch and tiles, inline with a
// nil pfor, otherwise one pfor wavefront at a time. ctx is checked once per
// row. Every schedule agrees bit for bit, in every semiring. It writes every
// cell of [0, N)² before reading it and reads no other, so a Reset table's
// old cells never reach the result.
//
// exact asserts that k is max-plus and that every sum the fill forms is
// exact (score.Grid.Exact), which the caller knows in O(1) from its model;
// the rows then finish by the closure sweep instead of the per-split walk
// (fillRow), with the same table, and tile at closureTile instead of
// tileEdge, on every kernel body. The float64 fills pass false.
//
// unit is the weight of one unpaired base — One in the unscaled semirings,
// e^{-σ} when the caller runs the sum-product kernels on
// per-nucleotide-scaled Boltzmann factors — and lands on the diagonal; the
// lower triangle gets One. Written that way every candidate is a ⊗ of two
// stored cells (or one cell and a pair weight), so the fill needs no scale
// of its own. w gives the pair weights of cells i < j, each asked for once
// (a max-plus S build's are score.Weights.Rows: four base rows, uncopied).
// On an error the table is left partially filled and the error returned.
func (t *GTable[T]) FillContext(ctx context.Context, k semiring.Kernels[T], unit T, w PairRows[T], exact bool, pfor ParallelFor) error {
	tile := tileEdge
	if exact {
		tile = closureTile
	}
	return t.fillContext(ctx, k, unit, w, exact, pfor, SequentialCutoff, tile)
}

// fillContext is FillContext with the cutoff and tile edge as arguments, so
// the tests can run the padded, tiled form where a per-cell oracle can.
func (t *GTable[T]) fillContext(ctx context.Context, k semiring.Kernels[T], unit T, w PairRows[T], exact bool, pfor ParallelFor, cutoff, tile int) error {
	t.layout(t.N, cutoff)
	t.one, t.closed = k.One, exact
	if t.N < cutoff {
		tile, pfor = max(t.N, 1), nil
	}
	var cl *closure[T]
	t.live = t.live[:0]
	if exact {
		cl = t.scratch(k, tile)
	}
	return fillTiled(ctx, t, tile, k, unit, w, cl, pfor)
}

// scratch sizes the closure form's scratch and the live words to the table
// and a tile edge, reusing their storage, and sets the words to each row's
// diagonal bit alone: no split reaches S[i,i], and the fill's Live writes
// every other bit a reader takes.
func (t *GTable[T]) scratch(k semiring.Kernels[T], tile int) *closure[T] {
	n, cl := t.N, &t.cl
	cl.pre, cl.zero, cl.off = grow(cl.pre, n), grow(cl.zero, n), grow(cl.off, n)
	for r := range cl.off {
		cl.off[r], cl.zero[r] = r*t.pitch, k.Zero
	}
	words, slots, slot := liveWords(n, tile)
	t.live, cl.tiles, cl.slot = grow(t.live, words), grow(cl.tiles, slots*slot), slot
	clear(t.live)
	for i, w := 0, liveW(n); i < n; i++ {
		t.live[i*w+i>>6] = 1 << (i & 63)
	}
	return cl
}

// grow returns s resized to n elements, its storage kept where it holds them.
func grow[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

// liveWords returns the live words of a closure fill of n positions in
// tile-edge tiles — ⌈n/64⌉ a row — and its products' tile bit-sets: slots
// slots of slot words, one to each block-row that has a tile at block
// distance 2 (none below three block-columns).
func liveWords(n, tile int) (words, slots, slot int) {
	return n * liveW(n), max((n+tile-1)/tile-2, 0), maxplus.ProductTiles(tile) * liveW(n)
}

// LiveBytes is what FillContext's closure form keeps beyond the cells of a
// max-plus table of n positions, on every kernel body: its rows' live words
// and, tiled, its products' tile bit-sets, which GTable.Bytes counts too.
func LiveBytes(n int) int64 {
	tile := max(n, 1)
	if Tiled(n) {
		tile = closureTile
	}
	words, slots, slot := liveWords(n, tile)
	return int64(words+slots*slot) * 8
}

// Closed reports whether the table's last fill finished its rows by the
// closure sweep (FillContext's exact) rather than the per-split walk.
func (t *GTable[T]) Closed() bool { return t.closed }

// Tiled reports whether FillContext tiles an n-position table, and so
// whether a pfor would be used: a caller for whom binding one allocates can
// skip it otherwise.
func Tiled(n int) bool { return n >= SequentialCutoff }

// Build fills a fresh max-plus table on the calling goroutine. O(n³) time,
// O(n²) space.
func Build(n int, score ScoreFunc) *Table {
	return BuildG(n, semiring.MaxPlusKernels(true), score)
}

// BuildG fills a fresh table in k's semiring on the calling goroutine, every
// unpaired base weighing One, score called once per cell i < j. It knows no
// model bound, so its rows take the per-split walk.
func BuildG[T semiring.Scalar](n int, k semiring.Kernels[T], score func(i, j int) T) *GTable[T] {
	t := NewGTable[T](n)
	_ = t.FillContext(context.Background(), k, k.One, ScoreRows(n, score), false, nil) // Background never cancels
	return t
}

// Pair is one base pair (I, J) with I < J, 0-based.
type Pair struct{ I, J int }

// Traceback recovers one optimal set of base pairs for the whole sequence
// from a table filled in a max-plus semiring (⊕ = max, ⊗ = +; in any other
// the table holds no optimum to recover). The returned pairs are
// non-crossing and their total weight equals S[0, N-1].
func (t *GTable[T]) Traceback(score func(i, j int) T) []Pair {
	return t.TracebackInterval(0, t.N-1, score)
}

// TracebackInterval recovers one optimal pair set for the closed interval
// [i0, j0]; the total weight equals S[i0, j0]. BPMax's traceback calls this
// whenever its decomposition bottoms out in a single-strand fold.
func (t *GTable[T]) TracebackInterval(i0, j0 int, score func(i, j int) T) []Pair {
	var pairs []Pair
	// Explicit DFS stack instead of recursion: a degenerate table (e.g. a
	// long unpairable strand walking S[i,j-1] one column at a time) would
	// otherwise recurse O(n) deep and can overflow the goroutine stack on
	// very long strands. Popping LIFO and pushing a split's right half
	// first reproduces the recursive visit order exactly, so the emitted
	// pair order is unchanged.
	stack := make([]Pair, 0, 32)
	if j0 > i0 {
		stack = append(stack, Pair{i0, j0})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, j := top.I, top.J
	walk:
		for j > i {
			v := t.At(i, j)
			switch {
			case v == t.At(i+1, j):
				i++
			case v == t.At(i, j-1):
				j--
			case v == t.At(i+1, j-1)+score(i, j):
				pairs = append(pairs, Pair{i, j})
				i++
				j--
			default:
				for k := i; k < j; k++ {
					if v == t.At(i, k)+t.At(k+1, j) {
						stack = append(stack, Pair{k + 1, j})
						j = k // continue with the left half (i, k)
						continue walk
					}
				}
				panic(fmt.Sprintf("nussinov: traceback stuck at (%d, %d)", i, j))
			}
		}
	}
	return pairs
}

// DotBracket renders a pair set over n positions in dot-bracket notation.
// It panics if the pairs cross or reuse a position, making it usable as a
// structure validity check in tests.
func DotBracket(n int, pairs []Pair) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '.'
	}
	for _, p := range pairs {
		if p.I < 0 || p.J >= n || p.I >= p.J {
			panic(fmt.Sprintf("nussinov: invalid pair %v", p))
		}
		if out[p.I] != '.' || out[p.J] != '.' {
			panic(fmt.Sprintf("nussinov: position reused by pair %v", p))
		}
		out[p.I], out[p.J] = '(', ')'
	}
	// Crossing check via bracket matching.
	depthStack := make([]int, 0, n)
	open := make(map[int]int) // open position -> its pair J
	for _, p := range pairs {
		open[p.I] = p.J
	}
	for i := 0; i < n; i++ {
		switch out[i] {
		case '(':
			depthStack = append(depthStack, open[i])
		case ')':
			if len(depthStack) == 0 || depthStack[len(depthStack)-1] != i {
				panic("nussinov: crossing pairs")
			}
			depthStack = depthStack[:len(depthStack)-1]
		}
	}
	return string(out)
}

// PairsWeight sums score over a pair set.
func PairsWeight(pairs []Pair, score ScoreFunc) float32 {
	var total float32
	for _, p := range pairs {
		total += score(p.I, p.J)
	}
	return total
}
