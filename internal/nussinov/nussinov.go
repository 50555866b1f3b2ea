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
// paper's unit-stride stream y = max(a + x, y) over whole rows (fill.go; the
// one body behind Table and GTable), and BuildParallelContext cuts that into
// a triangle of tiles, mirroring how the paper schedules S¹/S² "before
// scheduling any other variables".
package nussinov

import (
	"context"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/semiring"
)

// ScoreFunc returns the pairing weight for positions i < j, or a very
// large negative value (score.NegInf) when the pairing is forbidden.
type ScoreFunc func(i, j int) float32

// Table holds S over a bounding-box memory map (option 1 of the paper's
// Fig 10): row-contiguous so BPMax's kernels can stream rows of S².
type Table struct {
	N    int
	data []float32 // data[i*N+j] = S[i,j] for i <= j
}

// NewTable allocates an empty (all-zero) table for n positions.
func NewTable(n int) *Table {
	if n < 0 {
		panic(fmt.Sprintf("nussinov: negative size %d", n))
	}
	return &Table{N: n, data: make([]float32, n*n)}
}

// At returns S[i,j]; intervals with j < i (and the empty table) are 0 by
// definition.
func (t *Table) At(i, j int) float32 {
	if j < i {
		return 0
	}
	if i < 0 || j >= t.N {
		panic(fmt.Sprintf("nussinov: At(%d, %d) out of table of size %d", i, j, t.N))
	}
	return t.data[i*t.N+j]
}

// Row returns the slice holding row i (cells (i, 0..N-1) of the bounding
// box; only j >= i are meaningful). Callers must not modify it.
func (t *Table) Row(i int) []float32 { return t.data[i*t.N : (i+1)*t.N] }

// Data exposes the table's backing storage (row-contiguous, N×N): the
// solver's algebra bundles stream rows out of it, and the Four-Russians
// comparator package fills a Table through it. Every other
// caller must treat it as read-only.
func (t *Table) Data() []float32 { return t.data }

// Clone returns an independent deep copy of t. Cached substrate tables are
// cloned out of pooled problems, whose own storage is reset on reuse.
func (t *Table) Clone() *Table {
	cp := &Table{N: t.N, data: make([]float32, len(t.data))}
	copy(cp.data, t.data)
	return cp
}

// Bytes returns the table's cell-storage footprint.
func (t *Table) Bytes() int64 { return int64(len(t.data)) * 4 }

// Reset prepares t for reuse at size n: storage is kept when its capacity
// allows (grown otherwise) and every cell is zeroed, so a reused table is
// indistinguishable from a fresh NewTable(n).
func (t *Table) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("nussinov: negative size %d", n))
	}
	need := n * n
	if cap(t.data) < need {
		t.data = make([]float32, need)
	} else {
		t.data = t.data[:need]
		clear(t.data)
	}
	t.N = n
}

// Fill runs the recurrence sequentially over a fresh or Reset table: the
// float32 max-plus instantiation of the streamed fill, on the AVX2 kernels
// where the process has them. O(n³) time.
func (t *Table) Fill(score ScoreFunc) {
	_ = fill(context.Background(), t.data, t.N, semiring.MaxPlusKernels(true), 0, score) // Background never cancels
}

// Build fills a fresh table sequentially. O(n³) time, O(n²) space.
func Build(n int, score ScoreFunc) *Table {
	t := NewTable(n)
	t.Fill(score)
	return t
}

// BuildParallelContext fills the table with pfor cooperating on each
// wavefront of tiles (nil, or a table under SequentialCutoff, fills inline
// row by row), checking ctx once per wavefront or row — each costs O(n²)
// work at most, so a cancel returns promptly. On cancellation or a failed
// wavefront the partial table is discarded and the error returned.
func BuildParallelContext(ctx context.Context, n int, score ScoreFunc, pfor ParallelFor) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Allocate only after the initial ctx check: an already-cancelled
	// request must not pay for (or retain) an O(n²) table.
	t := NewTable(n)
	k := semiring.MaxPlusKernels(true)
	var err error
	if pfor == nil || n < SequentialCutoff {
		err = fill(ctx, t.data, n, k, 0, score)
	} else {
		err = fillTiled(ctx, t.data, n, tileEdge, k, 0, score, pfor)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Pair is one base pair (I, J) with I < J, 0-based.
type Pair struct{ I, J int }

// Traceback recovers one optimal set of base pairs for the whole sequence.
// The returned pairs are non-crossing and their total weight equals
// S[0, N-1].
func (t *Table) Traceback(score ScoreFunc) []Pair {
	return t.TracebackInterval(0, t.N-1, score)
}

// TracebackInterval recovers one optimal pair set for the closed interval
// [i0, j0]; the total weight equals S[i0, j0]. BPMax's traceback calls this
// whenever its decomposition bottoms out in a single-strand fold.
func (t *Table) TracebackInterval(i0, j0 int, score ScoreFunc) []Pair {
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
