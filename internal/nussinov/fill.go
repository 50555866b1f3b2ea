package nussinov

import (
	"cmp"
	"context"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// SequentialCutoff is the one threshold of the single-strand fill: from it up
// a table takes a padded row pitch (PitchOf) and fills in tiles, below it the
// table is dense and one tile, the row order. It is the measured crossover:
// on the 2-vCPU reference host, in the closure form, one worker on padded
// tiles ties one on dense rows up to 976 nt and first beats it at 992 (table
// in docs/PERFORMANCE.md, "The single-strand substrate").
const SequentialCutoff = 992

// tileEdge is the side of the square tiles a table at or above
// SequentialCutoff is cut into in the walk's form (the closure's is
// closureTile): wide enough that a tile row's stream is as
// long as the average whole-row stream of a 768-nt table, narrow enough that
// the rows below a tile, 1 KiB each in its columns, fit a 2 MiB L2 to 2048 nt.
const tileEdge = 256

// closureTile is the tile edge of the closure form from SequentialCutoff up,
// on every kernel body (fillTile): on AVX-512 128 won less and 32 lost, and
// the Go loops read the same at 64 as at tileEdge, within their spread
// (docs/PERFORMANCE.md, "The block product" and "The portable build").
const closureTile = 64

// ParallelFor runs f(i) for every i in [0, n) on the caller's parallel
// runtime and returns the first cancellation, injected fault or recovered
// panic. The fold pipeline passes its solver Config's loop (the shared
// Engine when one is set), so a substrate build obeys the same width cap,
// panic isolation and failpoints as the interaction fill. A nil ParallelFor
// fills inline on the calling goroutine.
type ParallelFor func(ctx context.Context, n int, f func(i int)) error

// closure is the scratch of the closure form: pre holds each row's seed ⊕
// its pair term by absolute column, off the table's row offsets (off[r] =
// r·pitch), zero a row of Zero, and tiles a product's kernel-tile bit-sets,
// one slot of slot words to each block-row, so the tiles of a wavefront build
// theirs side by side. A nil *closure is the per-split walk.
type closure[T semiring.Scalar] struct {
	pre, zero []T
	off       []int
	tiles     []uint64
	slot      int
}

// fillRow is the one single-strand fill body: it computes S[i, j] for the
// columns j in [max(c0, i+1), c1) of row i, given every row below i final on
// [0, c1), row i final left of c0 and its hops via [mid, c0) in its cells.
// Row r is t.data[r*p:], p the table's pitch. The recurrence
//
//	S[i,j] = S[i,i] ⊗ S[i+1,j]  ⊕  S[i,j-1] ⊗ S[j,j]
//	       ⊕ S[i+1,j-1] ⊗ w(i,j)  ⊕  ⊕_{s=i..j-1} S[i,s] ⊗ S[s+1,j]
//
// is run as the paper's streaming update instead of cell by cell: seed the
// row from the one below (the first and third terms, the third one AccumEach
// over the row's pair weights), then finish it in one of two forms. Every
// inner loop is unit-stride; nothing walks a column.
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
// with y register-held across every s. y keeps the splits alone: i unpaired,
// the product's and, in a tile right of the diagonal, the hops from the row's
// final cells [i, mid), one Sweep more; pre is y ⊕ the pair term, and the
// closure Sweep streams pre's hops into y. Live then folds pre into y and sets
// the bit of each column whose pre beats every split — R2's word, exactly
// (scratch sets each row's diagonal bit up front). Every sum is exact, so the
// table is the walk's bit for bit, tiled or not, and pre may carry hops
// (docs/ALGORITHM.md §9).
func fillRow[T semiring.Scalar](t *GTable[T], k *semiring.Kernels[T], unit T, w PairRows[T], i, c0, mid, c1 int, cl *closure[T]) {
	data, p := t.data, t.pitch
	y := data[i*p : i*p+c1 : i*p+c1]
	below := data[(i+1)*p : (i+1)*p+c1 : (i+1)*p+c1]
	lo := max(c0, i+1)
	if mid < c0 {
		k.Accum(y[lo:c1], below[lo:c1], unit) // onto the product
	} else {
		k.MulInto(y[lo:c1], below[lo:c1], unit) // i unpaired ⊗ S[i+1, j]
	}
	if cl != nil {
		if mid > i {
			k.Sweep(y, y, data, cl.off, i, mid, c0, c1, maxplus.Pre[T]{})
		}
		s0 := max(c0, i) // the diagonal, S[i,i] = unit, is the first hop
		copy(cl.pre[s0:c1], y[s0:c1])
		k.AccumEach(cl.pre[lo:c1], below[lo-1:c1-1], w(i, lo, c1))
		k.Sweep(y, cl.pre, data, cl.off, s0, c1-1, lo, c1, maxplus.Pre[T]{})
		nw := liveW(t.N) // Live ends the row and records its live words (GTable.Live)
		k.Live(y, cl.pre, lo, c1, t.live[i*nw:(i+1)*nw])
		return
	}
	k.AccumEach(y[lo:c1], below[lo-1:c1-1], w(i, lo, c1)) // S[i+1, j-1] ⊗ w(i, j)
	for s := i; s < c1-1; s++ {
		x := data[(s+1)*p : (s+1)*p+c1 : (s+1)*p+c1]
		from := lo
		if s+1 >= lo {
			from = s + 1
			y[from] = k.Add(k.Mul(y[s], x[from]), y[from]) // S[i, j-1] ⊗ j unpaired
		}
		k.Accum(y[from:c1], x[from:c1], y[s])
	}
}

// fillTiled fills t: the boundary, then tile-square tiles. Tile (I, J) needs
// the tiles left of it in its block-row and below it in its block-column, so
// the tiles of one block anti-diagonal are independent — the paper's triangle
// of tiles — and run inline with a nil pfor, as one pfor wavefront otherwise.
// They own distinct columns and rows, so they share the closure's pre row and
// a ScoreRows row without touching each other's cells or live words. On an
// error the table is partially filled.
func fillTiled[T semiring.Scalar](ctx context.Context, t *GTable[T], tile int, k semiring.Kernels[T], unit T, w PairRows[T], cl *closure[T], pfor ParallelFor) error {
	n := t.N
	boundary(t.data, n, t.pitch, k.One, unit)
	for nb, d := (n+tile-1)/tile, 0; d < nb; d++ {
		if pfor != nil {
			// A tile that saw the cancel stopped short: the wavefront failed.
			err := pfor(ctx, nb-d, func(b int) { _ = fillTile(ctx, t, tile, k, unit, w, cl, b, d) })
			if err = cmp.Or(err, ctx.Err()); err != nil {
				return err
			}
			continue
		}
		for b := 0; b < nb-d; b++ {
			if err := fillTile(ctx, t, tile, k, unit, w, cl, b, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillTile fills tile (b, b+d) of the block grid, rows bottom-up, each by
// fillRow restricted to the tile's columns, polling ctx before each row. A
// closure tile at d ≥ 2 first takes its cross-tile splits [mid, c0) as one
// Product onto its cells set to Zero (about 0.1 ms, between two polls); every
// split reaches every column of the tile, so its diag, mid+1-c0, skips none.
// The product skips the splits its rows' live words, final since the tiles
// left of it, mark dominated (docs/ALGORITHM.md §9, "The substrate's
// dominated splits").
func fillTile[T semiring.Scalar](ctx context.Context, t *GTable[T], tile int, k semiring.Kernels[T], unit T, w PairRows[T], cl *closure[T], b, d int) error {
	data, n, p := t.data, t.N, t.pitch
	r0, c0 := b*tile, (b+d)*tile
	c1, mid := min(c0+tile, n), c0
	if cl != nil && d >= 2 {
		mid = r0 + tile
		for i := r0; i < mid; i++ {
			copy(data[i*p+c0:i*p+c1], cl.zero)
		}
		live := maxplus.TileLive(cl.tiles[b*cl.slot:], t.live, liveW(n), r0, tile, mid, c0)
		k.Product(data[r0*p+c0:], p, data[r0*p+mid:], p, data[(mid+1)*p+c0:], p, tile, c1-c0, c0-mid, mid+1-c0, maxplus.Pre[T]{}, live)
	}
	// Row n-1 has no row below it and nothing right of its diagonal.
	for i := min(r0+tile, n-1) - 1; i >= r0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		fillRow(t, &k, unit, w, i, c0, mid, c1, cl)
	}
	return nil
}

// boundary writes the cells no row fill computes: One below the diagonal
// (the empty interval) and unit, the weight of one unpaired base, on it. Row
// i's run of One is row i-1's, copied, and one cell more.
func boundary[T semiring.Scalar](data []T, n, p int, one, unit T) {
	for i := 0; i < n; i++ {
		row := data[i*p : i*p+n : i*p+n]
		if i > 0 {
			copy(row[:i-1], data[(i-1)*p:(i-1)*p+i-1])
			row[i-1] = one
		}
		row[i] = unit
	}
}
