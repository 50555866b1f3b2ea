package nussinov

import (
	"context"

	"github.com/bpmax-go/bpmax/internal/semiring"
)

// SequentialCutoff is the table size below which a parallel substrate build
// fills inline, row by row, like a one-worker build. It is the measured
// crossover, not a guess: on the 2-vCPU reference host, in the closure form
// an integer-weight strand builds by, two workers on tiles first beat one
// worker on rows beyond noise in every sweep at n = 1024 (at 768 and below
// they tie; table in docs/PERFORMANCE.md, "The single-strand substrate").
const SequentialCutoff = 1024

// tileEdge is the side of the square tiles a parallel build is cut into:
// wide enough that a tile row's stream is as long as the average whole-row
// stream of a 768-nt table, narrow enough that a table just over
// SequentialCutoff still has five block-rows to share out.
const tileEdge = 256

// ParallelFor runs f(i) for every i in [0, n) on the caller's parallel
// runtime and returns the first cancellation, injected fault or recovered
// panic. The fold pipeline passes its solver Config's loop (the shared
// Engine when one is set), so a substrate build obeys the same width cap,
// panic isolation and failpoints as the interaction fill. A nil ParallelFor
// fills inline on the calling goroutine.
type ParallelFor func(ctx context.Context, n int, f func(i int)) error

// closure is the scratch of the closure form: pre holds each row's seed by
// absolute column, off the table's row offsets (off[r] = r·n). A nil
// *closure is the per-split walk.
type closure[T semiring.Scalar] struct {
	pre []T
	off []int
}

// fillRow is the one single-strand fill body: it computes S[i, j] for the
// columns j in [max(c0, i+1), c1) of row i, given every row below i final on
// [0, c1) and row i itself final left of c0. The recurrence
//
//	S[i,j] = S[i,i] ⊗ S[i+1,j]  ⊕  S[i,j-1] ⊗ S[j,j]
//	       ⊕ S[i+1,j-1] ⊗ w(i,j)  ⊕  ⊕_{s=i..j-1} S[i,s] ⊗ S[s+1,j]
//
// is run as the paper's streaming update instead of cell by cell: seed the
// row from the one below (the first and third terms; score is called exactly
// once per cell, here), then finish it in one of two forms. Every inner loop
// is unit-stride; nothing walks a column.
//
// The walk (cl nil) goes s left to right — y[s] has by then received every
// candidate it will get — and streams y[s] ⊗ (row s+1) into the rest of the
// row with one Accum. The second term rides along as one scalar ⊕ per s
// (under max it repeats the s = j-1 split and changes nothing; under ⊕ = + it
// is a real term of the derivation-weighted sum). Each cell receives its
// candidates in the same order whatever (c0, c1) tiling the row is filled
// under, so tiled and untiled walks agree bit for bit in every semiring.
//
// The closure (exact max-plus only) needs no order: the rows below are
// closed under splitting, S[a,j] ≥ S[a,s] ⊗ S[s+1,j], so every chain of
// splits collapses to one hop from the seed, S[i,j] = pre[j] ⊕
// ⊕_s pre[s] ⊗ S[s+1,j] (docs/ALGORITHM.md §9), and the row is one Sweep
// with y register-held across every s. A tile right of the diagonal first
// takes the hops from the row's final cells left of it, one Sweep more.
// Every sum is exact, so the table is the walk's bit for bit, tiled or not.
func fillRow[T semiring.Scalar](data []T, n int, k *semiring.Kernels[T], unit T, score func(i, j int) T, i, c0, c1 int, cl *closure[T]) {
	y := data[i*n : i*n+n : i*n+n]
	below := data[(i+1)*n : (i+1)*n+n : (i+1)*n+n]
	lo := max(c0, i+1)
	k.MulInto(y[lo:c1], below[lo:c1], unit) // i unpaired ⊗ S[i+1, j]
	for j := lo; j < c1; j++ {
		y[j] = k.Add(k.Mul(below[j-1], score(i, j)), y[j])
	}
	if cl != nil {
		s0 := max(c0, i) // the diagonal, S[i,i] = unit, is the first hop
		copy(cl.pre[s0:c1], y[s0:c1])
		if c0 > i {
			k.Sweep(y, y, data, cl.off, i, c0, c0, c1)
		}
		k.Sweep(y, cl.pre, data, cl.off, s0, c1-1, lo, c1)
		return
	}
	for s := i; s < c1-1; s++ {
		x := data[(s+1)*n : (s+1)*n+n : (s+1)*n+n]
		from := lo
		if s+1 >= lo {
			from = s + 1
			y[from] = k.Add(k.Mul(y[s], x[from]), y[from]) // S[i, j-1] ⊗ j unpaired
		}
		k.Accum(y[from:c1], x[from:c1], y[s])
	}
}

// fill runs fillRow over a whole n×n table on the calling goroutine: the
// boundary, then the rows bottom-up, polling ctx once per row (O(n²) work).
// On cancellation the table is left partially filled.
func fill[T semiring.Scalar](ctx context.Context, data []T, n int, k semiring.Kernels[T], unit T, score func(i, j int) T, cl *closure[T]) error {
	boundary(data, n, k.One, unit)
	for i := n - 2; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		fillRow(data, n, &k, unit, score, i, 0, n, cl)
	}
	return nil
}

// fillTiled is fill with the triangle cut into tile-square tiles, each
// filled by the same fillRow restricted to the tile's columns. Tile (I, J)
// needs the tiles left of it in its block-row and below it in its
// block-column, so the tiles of one block anti-diagonal are independent and
// run as one pfor wavefront — the paper's triangle-of-tiles schedule. The
// tiles of a wavefront own distinct columns, so they share the closure's pre
// row without touching each other's cells. ctx is polled once per
// wavefront. On an error the table is partially filled.
func fillTiled[T semiring.Scalar](ctx context.Context, data []T, n, tile int, k semiring.Kernels[T], unit T, score func(i, j int) T, cl *closure[T], pfor ParallelFor) error {
	boundary(data, n, k.One, unit)
	for nb, d := (n+tile-1)/tile, 0; d < nb; d++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := pfor(ctx, nb-d, func(b int) {
			r0, c0 := b*tile, (b+d)*tile
			c1 := min(c0+tile, n)
			// Row n-1 has no row below it and nothing right of its diagonal.
			for i := min(r0+tile, n-1) - 1; i >= r0; i-- {
				fillRow(data, n, &k, unit, score, i, c0, c1, cl)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// boundary writes the cells no row fill computes: One below the diagonal
// (the empty interval) and unit, the weight of one unpaired base, on it.
func boundary[T semiring.Scalar](data []T, n int, one, unit T) {
	for i := 0; i < n; i++ {
		row := data[i*n : i*n+n : i*n+n]
		for j := 0; j < i; j++ {
			row[j] = one
		}
		row[i] = unit
	}
}
