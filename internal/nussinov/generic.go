package nussinov

import (
	"context"
	"fmt"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/semiring"
)

// GTable is Table over an arbitrary scalar semiring: the same bounding-box
// memory map (row-contiguous; after a fill the lower triangle holds One —
// the empty interval — and the diagonal the weight of one unpaired base),
// filled with ⊕ and ⊗ through a kernel bundle by the same streamed body as
// Table. The float32 max-plus instantiation is Table's fill (pinned by a
// parity test); the float64 log-sum-exp instantiation computes the log of
// the strand's derivation-weighted Boltzmann sum, and the float64
// sum-product instantiation the same sum in the linear domain — the
// single-strand partition substrates of the BPPart fill.
type GTable[T semiring.Scalar] struct {
	N    int
	data []T // data[i*N+j] = S[i,j] for i <= j
	one  T   // the filling semiring's One: S of an empty interval
}

// NewGTable allocates a zeroed table for n positions; Fill writes the
// boundary cells its semiring needs.
func NewGTable[T semiring.Scalar](n int) *GTable[T] {
	if n < 0 {
		panic(fmt.Sprintf("nussinov: negative size %d", n))
	}
	return &GTable[T]{N: n, data: make([]T, n*n)}
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
	return t.data[i*t.N+j]
}

// Row returns the slice holding row i (cells (i, 0..N-1) of the bounding
// box; only j >= i are meaningful). Callers must not modify it.
func (t *GTable[T]) Row(i int) []T { return t.data[i*t.N : (i+1)*t.N] }

// Data exposes the table's backing storage (row-contiguous, N×N). Callers
// must treat it as read-only.
func (t *GTable[T]) Data() []T { return t.data }

// Bytes returns the table's cell-storage footprint.
func (t *GTable[T]) Bytes() int64 {
	var z T
	return int64(len(t.data)) * int64(unsafe.Sizeof(z))
}

// Reset prepares t for reuse at size n, exactly like Table.Reset: storage
// kept when capacity allows, every cell re-zeroed.
func (t *GTable[T]) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("nussinov: negative size %d", n))
	}
	need := n * n
	if cap(t.data) < need {
		t.data = make([]T, need)
	} else {
		t.data = t.data[:need]
		clear(t.data)
	}
	t.N = n
}

// Fill runs the recurrence sequentially over a fresh or Reset table with
// every unpaired base weighing One; see FillContext.
func (t *GTable[T]) Fill(k semiring.Kernels[T], score func(i, j int) T) {
	_ = t.FillContext(context.Background(), k, k.One, score) // Background never cancels
}

// FillContext runs the streamed fill (fill.go) over a fresh or Reset table,
// checking ctx once per row (O(n³) time in all). unit is the weight of one
// unpaired base — One in the unscaled semirings, e^{-σ} when the caller runs
// the sum-product kernels on per-nucleotide-scaled Boltzmann factors — and
// lands on the diagonal; the lower triangle gets One. Written that way every
// candidate is a ⊗ of two stored cells (or one cell and a pair weight), so
// the fill needs no scale of its own. score(i, j) is called exactly once per
// cell i < j. On cancellation the table is left partially filled and
// ctx.Err() returned.
func (t *GTable[T]) FillContext(ctx context.Context, k semiring.Kernels[T], unit T, score func(i, j int) T) error {
	t.one = k.One
	return fill(ctx, t.data, t.N, k, unit, score)
}

// BuildG fills a generic table sequentially.
func BuildG[T semiring.Scalar](n int, k semiring.Kernels[T], score func(i, j int) T) *GTable[T] {
	t := NewGTable[T](n)
	t.Fill(k, score)
	return t
}

// BuildGContext is BuildG with cooperative cancellation, checked once per
// row. On cancellation the partial table is discarded and ctx.Err() returned.
func BuildGContext[T semiring.Scalar](ctx context.Context, n int, k semiring.Kernels[T], score func(i, j int) T) (*GTable[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := NewGTable[T](n)
	if err := t.FillContext(ctx, k, k.One, score); err != nil {
		return nil, err
	}
	return t, nil
}
