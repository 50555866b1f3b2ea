package bpmax

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// The scaled sum-product fill's range guard. A scaled result is returned
// only if every stored cell is finite and inside [guardLo, guardHi]. Every
// term of the recurrence is non-negative, so in-window cells mean no partial
// sum overflowed (an Inf or NaN never washes out), and a product of two
// in-window factors that underflowed was below 2⁻¹⁰²² against a cell of at
// least 2⁻⁹⁰⁰ — under 2⁻¹²² of it, far below rounding. Every cell is at
// least its H seed S̃¹·S̃² > 0, so a stored zero is itself an underflow.
const (
	guardLo = 0x1p-900
	guardHi = 0x1p+900
)

// errScaledRange reports a tripped range guard: the scaled fill's table is
// discarded and SolvePartitionContext refills in the log domain.
var errScaledRange = errors.New("bpmax: scaled partition fill left the float64 range window")

// inGuard reports whether v is inside the guard window (NaN fails both
// comparisons).
func inGuard(v float64) bool { return v >= guardLo && v <= guardHi }

// inGuardWindow reports whether every cell is inside the guard window.
func inGuardWindow[T semiring.Scalar](cells []T) bool {
	for _, v := range cells {
		if !inGuard(float64(v)) {
			return false
		}
	}
	return true
}

// solver is the float32 (max-plus) instantiation of the generic solver —
// the historical name used by the DMP schedules and the tests.
type solver = gsolver[float32]

// gsolver carries the state shared by the optimized schedules: the problem,
// the algebra view, the table being filled and the resolved configuration.
// The schedules and finalize are algebra-agnostic; only the kernels touch
// scalars.
type gsolver[T semiring.Scalar] struct {
	p   *Problem
	a   alg[T]
	f   *FTableOf[T]
	cfg Config
	// acc and sweep are the bundle's single stream and its k2 loop of
	// streams (a.k.Accum, a.k.Sweep).
	acc   func(y, x []T, a T)
	sweep func(y, a, b []T, off []int, k0, k1, from, n int, pre maxplus.Pre[T])
	// s2off is S² (and the star table) seen as a block of Sweep: row r of
	// a.s2 starts at s2off[r] = r·p2.
	s2off []int
	// pre holds the rows finalize's R2 sweep reads where r2 is nil: row i1
	// is pre[i1*n2 : (i1+1)*n2], so concurrent triangles write their own.
	pre []T
	// blocks is set where R0 runs as block products, and blocksR1 where R1
	// does too (newGSolver says where); zeros is then a row of Zero that
	// initRow copies below each row's diagonal, as far left as a product
	// reads (padFrom).
	zeros            []T
	blocks, blocksR1 bool
	// r2, where R0's products skip dominated splits (nil elsewhere), is the
	// body's fused R2: finalize takes each row's R2 by it, recording in
	// rowLive, liveW words a row and n2 rows an i1, the columns R2 does not
	// reach, and builds from them, as each of r0Blocks' row groups completes,
	// the group's kernel-tile bit-sets: tileW words a block in tiles, group
	// q0's from tiles[tileOff[q0]:] (tileOff -1 where no group starts).
	r2      func(c, star []T, lds, k0, n int, live []uint64)
	rowLive []uint64
	liveW   int
	tiles   []uint64
	tileOff []int
	tileW   int
	// Where r2 is set, R1's products skip S²'s dominated splits too: r1live
	// is the kernel tiles' bit-sets of R1's groups, 4·liveW words a group,
	// built from S²'s own live words (armMasks).
	r1live []uint64

	// Per-wavefront state read by the task closures below, which are bound
	// once per (pooled) shell so repeat folds allocate no closures.
	curD1      int
	curI1      int
	curTileW   int
	curTilesPT int
	// tripped is set by any finalize task whose triangle left the range
	// guard's window (scaled domains only); the schedules poll it between
	// wavefronts.
	tripped atomic.Bool

	triTask     func(i1 int) // coarse: one whole triangle of wavefront curD1
	finTask     func(i1 int) // hybrid/tiled phase B: finalize one triangle
	rowAllTask  func(t int)  // hybrid phase A: one row across the wavefront
	rowFineTask func(i2 int) // fine: one row of triangle curI1 of wavefront curD1
	tileTask    func(t int)  // hybrid-tiled phase A: one row tile
}

// initTasks builds the reusable task closures. Called once per solver shell
// lifetime; the closures read the solver's cur* fields, so reassigning
// those retargets every schedule without reallocating.
func (s *gsolver[T]) initTasks() {
	s.triTask = func(i1 int) { s.computeTriangleSequential(i1, i1+s.curD1) }
	s.finTask = func(i1 int) {
		j1 := i1 + s.curD1
		s.finalize(s.f.Block(i1, j1), i1, j1)
	}
	s.rowAllTask = func(t int) {
		i1 := t / s.p.N2
		s.accumulateRowTask(i1, i1+s.curD1, t%s.p.N2)
	}
	s.rowFineTask = func(i2 int) { s.accumulateRowTask(s.curI1, s.curI1+s.curD1, i2) }
	s.tileTask = func(t int) {
		i1 := t / s.curTilesPT
		r0 := (t % s.curTilesPT) * s.curTileW
		r1 := r0 + s.curTileW
		if r1 > s.p.N2 {
			r1 = s.p.N2
		}
		s.accumulateTileTask(i1, i1+s.curD1, r0, r1)
	}
}

// newGSolver assembles a solver over an explicit algebra view and a table
// storing the band (w1, w2) — (N1, N2) for a full fill — under cfg.Map, the
// shell and table drawn from the pool's arenas of T when cfg has a pool.
// seeded: the caller fills every block through initRow, so where that writes
// every cell before any read the pooled storage is taken uncleared.
func newGSolver[T semiring.Scalar](p *Problem, a alg[T], cfg Config, w1, w2 int, seeded bool) *gsolver[T] {
	cfg = cfg.withDefaults()
	var s *gsolver[T]
	if cfg.Pool != nil {
		s = getSolver[T](cfg.Pool)
	} else {
		s = &gsolver[T]{}
	}
	// The layout and the algebra pick the form (fillForm); the body only
	// supplies the kernels.
	blocks, blocksR1, masks := fillForm(cfg.Map, p.N2, w2, a.k.R2 != nil)
	s.f = newAlgTable(p, &a, cfg.Pool, w1, w2, cfg.Map, seeded && blocks)
	s.p = p
	s.a = a
	s.cfg = cfg
	s.acc, s.sweep = a.k.Accum, a.k.Sweep
	if len(s.s2off) != a.n2 {
		s.s2off = make([]int, a.n2)
	}
	for r := range s.s2off {
		s.s2off[r] = r * a.p2
	}
	s.zeros, s.blocks, s.blocksR1 = s.zeros[:0], blocks, blocksR1
	if blocks {
		for range p.N2 {
			s.zeros = append(s.zeros, a.k.Zero)
		}
	}
	// Max-plus R0's products skip the splits R2 dominates, and R1's the
	// splits S² dominates, every sum being exact (docs/ALGORITHM.md §9,
	// "Dominated splits").
	s.r2 = nil
	if masks && p.S2.Closed() {
		s.armMasks(a.k.R2)
	} else {
		s.pre = atLeast(s.pre, p.N1*a.n2)
	}
	s.tripped.Store(false)
	if s.triTask == nil {
		s.initTasks()
	}
	return s
}

// armMasks binds r2 and builds, once per fold, R1's tile bit-sets from S²'s
// live words, which S²'s closure fill recorded (nussinov.GTable.Live: bit k2
// of row i2 set where no split m in [i2, k2) reaches S²[i2, k2]). It sizes
// the word scratch and the blocks' tile bit-sets, which the fill writes
// before it reads them.
func (s *gsolver[T]) armMasks(r2 func(c, star []T, lds, k0, n int, live []uint64)) {
	n2, w := s.p.N2, (s.p.N2+63)/64
	s.r2, s.liveW = r2, w
	s.rowLive = atLeast(s.rowLive, s.p.N1*n2*w)
	s.tileOff = atLeast(s.tileOff, n2)[:n2]
	s.tileW = tileSetWords(n2, s.cfg.TileI2, s.tileOff)
	s.tiles = atLeast(s.tiles, s.f.outer.Size()*s.tileW)
	s.r1live = atLeast(s.r1live, (n2+prodRows-1)/prodRows*4*w)
	for q0 := 0; q0 < n2; q0 += prodRows {
		q1 := min(q0+prodRows, n2)
		maxplus.TileLive(s.r1live[q0/prodRows*4*w:], s.p.S2.Live(), w, q0, q1-q0, q1-1, n2)
	}
}

// atLeast returns buf if it holds n elements, else a new slice of n.
func atLeast[E any](buf []E, n int) []E {
	if len(buf) < n {
		return make([]E, n)
	}
	return buf
}

// newSolver is the max-plus constructor: the algebra view is the problem's
// own tables, so it allocates nothing beyond the table.
func newSolver(p *Problem, cfg Config, w1, w2 int) *solver {
	return newGSolver(p, maxplusAlg(p, cfg), cfg, w1, w2, false)
}

// release recycles the solver shell after a successful solve; the filled
// table stays with the caller.
func (s *gsolver[T]) release() {
	pl := s.cfg.Pool
	s.p = nil
	s.f = nil
	s.a = alg[T]{}
	if pl != nil {
		arenaOf[T](pl).solvers.Put(s)
	}
}

// abort recycles both the solver shell and its partially filled table after
// a failed solve.
func (s *gsolver[T]) abort() {
	s.f.Release()
	s.release()
}

// finish hands the filled table to the caller and recycles the shell.
func (s *gsolver[T]) finish() *FTableOf[T] {
	f := s.f
	s.release()
	return f
}

// initRow seeds row i2 of triangle (i1, j1) with the H term
// S¹[i1,j1] ⊗ S²[i2,j2] — the "fold independently" candidate, which also
// establishes F >= One — and, where R0 or R1 runs as block products, writes
// Zero into the row's cells below the diagonal that a product reads.
func (s *gsolver[T]) initRow(blk []T, i1, j1, i2 int) {
	hi := s.f.rowHi(i2)
	grow := s.f.Row(blk, i2)
	copy(grow[padFrom(i2, s.cfg.TileI2, s.prodCols()):i2], s.zeros) // zeros is empty without blocks
	s2row := s.a.s2Row(i2)
	s.a.k.MulInto(grow[i2:hi], s2row[i2:hi], s.a.s1At(i1, j1))
}

// accumulateRow applies, for one k1, the R0, R3 and R4 contributions to row
// i2 of triangle (i1, j1)'s accumulator. A = F(i1,k1) and B = F(k1+1,j1)
// are finalized triangles from strictly earlier wavefronts.
//
//	R4: G[i2,j2] ⊕= A[i2,j2]  ⊗ S¹[k1+1,j1]   (suffix of seq1 folds alone)
//	R3: G[i2,j2] ⊕= B[i2,j2]  ⊗ S¹[i1,k1]     (prefix of seq1 folds alone)
//	R0: G[i2,j2] ⊕= A[i2,k2]  ⊗ B[k2+1,j2]    (both sequences split)
//
// The R0 update for fixed (i2, k2) is one streaming ⊕⊗ over j2 — the
// paper's "matrix instance" inner loop. Every stream ends at the row's
// stored bound hi: the rows of B it reads lie below i2 and reach at least as
// far (rowHi). The row's R4 and R3 ride in its R0 sweep as pre-streams
// (r34): each lane takes them before its k2, as it would from two calls of
// their own, and the row makes one trip through memory for all three.
func (s *gsolver[T]) accumulateRow(blk, ablk, bblk []T, i1, j1, k1, i2 int) {
	hi := s.f.rowHi(i2)
	arow := s.f.Row(ablk, i2)
	s.sweep(s.f.Row(blk, i2), arow, bblk, s.f.rowOff, i2, hi-1, 0, hi, r34(arow, s.f.Row(bblk, i2), s.a.s1At(k1+1, j1), s.a.s1At(i1, k1), i2))
}

// r34 is row i2's R4 and R3 as a sweep's pre-streams over the row's columns
// from i2 up: A's row ⊗ s4 = S¹[k1+1,j1], then B's row ⊗ s3 = S¹[i1,k1].
func r34[T semiring.Scalar](arow, brow []T, s4, s3 T, i2 int) maxplus.Pre[T] {
	return maxplus.Pre[T]{X1: arow, X2: brow, A1: s4, A2: s3, C0: i2}
}

// r0Tiled is the tiled form of accumulateRow over the row range [r0, r1),
// one k1: the R0 iteration space (i2 × k2 × j2) is chopped into TileK2-deep
// k2 bands (and optionally TileJ2-wide j2 bands) so that the B rows of one
// band stay cache-resident while every row of the i2 tile consumes them.
// With j2 untiled (the default) a row's share of a band is one Sweep, and a
// row's k2 stop at its own stored bound; the tile's last row reaches
// furthest. With withR34, a row's R4 and R3 ride in the sweep of the band that
// holds its first k2, k2t <= i2 < k2t+TileK2 — the bands before it do not
// touch the row — which for a row with no k2 (i2 = hi-1) is a sweep of the
// two alone. The DMP system has no R3/R4.
func (s *gsolver[T]) r0Tiled(blk, ablk, bblk []T, i1, j1, k1, r0, r1 int, withR34 bool) {
	tk := s.cfg.TileK2
	tj := s.cfg.TileJ2
	s4, s3 := s.a.s1At(k1+1, j1), s.a.s1At(i1, k1)
	kMax := max(s.f.rowHi(r1-1)-1, r1)
	for k2t := r0; k2t < kMax; k2t += tk {
		for i2 := r0; i2 < r1; i2++ {
			hi := s.f.rowHi(i2)
			grow := s.f.Row(blk, i2)
			arow := s.f.Row(ablk, i2)
			kLo := max(k2t, i2)
			kEnd := min(k2t+tk, hi-1)
			switch first := withR34 && kLo == i2 && i2 < k2t+tk; {
			case tj <= 0 && first:
				s.sweep(grow, arow, bblk, s.f.rowOff, kLo, kEnd, 0, hi, r34(arow, s.f.Row(bblk, i2), s4, s3, i2))
				continue
			case tj <= 0:
				s.sweep(grow, arow, bblk, s.f.rowOff, kLo, kEnd, 0, hi, maxplus.Pre[T]{})
				continue
			case first:
				s.sweep(grow, arow, bblk, s.f.rowOff, i2, i2, 0, hi, r34(arow, s.f.Row(bblk, i2), s4, s3, i2))
			}
			for k2 := kLo; k2 < kEnd; k2++ {
				a := arow[k2]
				bk := s.f.Row(bblk, k2+1)
				for j2t := k2 + 1; j2t < hi; j2t += tj {
					jEnd := min(j2t+tj, hi)
					s.acc(grow[j2t:jEnd], bk[j2t:jEnd], a)
				}
			}
		}
	}
}

// The block products' rows come in groups of prodRows, their columns in
// tiles of two AVX-512 vectors: 32 float32 or 16 float64 columns
// (docs/PERFORMANCE.md).
const prodRows = 8

func (s *gsolver[T]) prodCols() int { return 128 / int(unsafe.Sizeof(s.a.k.Zero)) }

// padFrom is the first column of row i2's padding a block product reads: the
// first column tile of its R0 group (its tileI2-row tile cut into groups of
// prodRows), which R1's groups and a row read as b do not pass to the left
// (docs/ALGORITHM.md §9).
func padFrom(i2, tileI2, cols int) int {
	r0 := i2 / tileI2 * tileI2
	return (r0 + (i2-r0)/prodRows*prodRows) / cols * cols
}

// r0Blocks is r0Tiled where every block holds Zero below its diagonal: each
// group [q0, q0+prodRows) of the rows [r0, r1) takes one product from the
// column tile holding q0, whose kernel walks the column tiles [cs, ce), each
// over the splits [q0, ce-1) — its cells' own, and ones that read A's or B's
// Zero — after the tile's R4 and R3 as pre-streams (with no split where ce =
// q0+1). B's row q0+1+s is Zero left of column q0+1+s: diag = q0+1-cs. With
// r2 set, the group's live bit-sets are A's, built by A's finalize.
func (s *gsolver[T]) r0Blocks(blk, ablk, bblk []T, i1, j1, k1, r0, r1 int) {
	n2, off, cols := s.p.N2, s.f.rowOff, s.prodCols()
	pre := r34[T](nil, nil, s.a.s1At(k1+1, j1), s.a.s1At(i1, k1), 0)
	var tiles []uint64
	if s.r2 != nil {
		tiles = s.blockTiles(i1, k1)
	}
	for q0 := r0; q0 < r1; q0 += prodRows {
		m := min(prodRows, r1-q0)
		var live []uint64
		if tiles != nil {
			live = tiles[s.tileOff[q0]:][:maxplus.ProductTiles(m)*(s.liveW-q0>>6)]
		}
		cs, b := q0/cols*cols, []T(nil)
		if n2-1 > q0 {
			b = bblk[off[q0+1]+cs:]
		}
		pre.X1, pre.X2 = ablk[off[q0]+cs:], bblk[off[q0]+cs:]
		s.a.k.Product(blk[off[q0]+cs:], n2, ablk[off[q0]+q0:], n2, b, n2, m, n2-cs, n2-1-q0, q0+1-cs, pre, live)
	}
}

// blockTiles is block (i1, j1)'s kernel-tile bit-sets, tileW words.
func (s *gsolver[T]) blockTiles(i1, j1 int) []uint64 {
	o := s.f.outer.At(i1, j1) * s.tileW
	return s.tiles[o : o+s.tileW : o+s.tileW]
}

// tileSetWords returns the words of one block's kernel-tile bit-sets for
// r0Blocks' row groups — prodRows rows from each tileI2-row tile's first,
// group q0's tiles ⌈n2/64⌉-q0/64 words each — and records in off, unless
// nil, where group q0's start, -1 at the rows that start none.
func tileSetWords(n2, tileI2 int, off []int) int {
	words := 0
	for i := range off {
		off[i] = -1
	}
	for r0 := 0; r0 < n2; r0 += tileI2 {
		r1 := min(r0+tileI2, n2)
		for q0 := r0; q0 < r1; q0 += prodRows {
			if off != nil {
				off[q0] = words
			}
			words += maxplus.ProductTiles(min(prodRows, r1-q0)) * ((n2+63)/64 - q0>>6)
		}
	}
	return words
}

// maskMinN2 is the shortest second strand whose fills skip dominated
// splits: below it R0's products are too short for the walk to repay the
// bookkeeping (docs/PERFORMANCE.md, "Dominated splits").
const maskMinN2 = 64

// fillForm is the form of a fill of a table under kind storing the band w2
// of an n2 strand, in max-plus (R2 set) or a partition algebra, on every
// kernel body. Every box-map block holds Zero below its diagonal (initRow),
// so with a band spanning N2 R0 runs as block products (r0Blocks), and
// max-plus R1 too (r1Blocks): partition's R1 by products would reorder its
// sums. From N2 = maskMinN2 up max-plus products skip dominated splits
// (masks), which newGSolver arms over a closed S² and liveBytes prices. All
// else keeps r0Tiled and the R1 sweep (docs/ALGORITHM.md §9).
func fillForm(kind MapKind, n2, w2 int, maxPlus bool) (blocks, blocksR1, masks bool) {
	blocks = kind == MapBox && w2 >= n2
	blocksR1 = blocks && maxPlus
	return blocks, blocksR1, blocksR1 && n2 >= maskMinN2
}

// finalize turns the accumulated H partials of triangle (i1, j1) into final
// F values, in every algebra. Rows run bottom-up, so the intra-triangle terms
// reach finalized rows only, and each term is applied to a whole row — the
// loop permutation of the paper's Table II/III schedules: R1 as one sweep
// over the rows below; the two pairing terms as two streams (Accum and
// AccumEach); then R2. R2 needs no chain: the final row is the row c as it
// stood before R2 times the star of T[k,j] = S²[k+1,j], and a.star holds
// T* − I shifted down a row (docs/ALGORITHM.md §4), so
//
//	F[i2,j2] = c[j2] ⊕ (⊕ over i2 ≤ k < j2 of c[k] ⊗ star[k+1,j2])
//
// — R1's sweep shape with a = a copy of c (s.pre), or, where r2 is set, the
// body's fused R2 in place, which skips the splits R2 itself dominates
// (docs/ALGORITHM.md §9) and records the row's live words; each row that
// starts one of r0Blocks' groups then builds the group's tile bit-sets from
// them. Max-plus S² is its own star, every sum being exact (Problem.exact);
// partition reads fillStar's table. A scaled domain range-checks each row once
// final, while it is still in cache.
func (s *gsolver[T]) finalize(blk []T, i1, j1 int) {
	a := &s.a
	n2 := a.n2
	sc1 := a.score1(i1, j1)
	s1Self := a.s1At(i1, j1)
	// The triangle the i1-j1 pair closes around; none when that seq1
	// interval is empty (d1 < 2), where the recurrence reads S² instead.
	var inside []T
	if i1+1 <= j1-1 {
		inside = s.f.Block(i1+1, j1-1)
	}
	var pre []T
	var words []uint64
	if s.r2 != nil {
		words = s.rowLive[i1*n2*s.liveW : (i1+1)*n2*s.liveW]
	} else {
		pre = s.pre[i1*n2 : (i1+1)*n2]
	}
	for i2 := n2 - 1; i2 >= 0; i2-- {
		hi := s.f.rowHi(i2)
		grow := s.f.Row(blk, i2)
		s2row := a.s2Row(i2)
		kEnd := hi - 1 // the sweep takes R1's splits [i2, kEnd)
		if s.blocksR1 {
			// Group [q0, kEnd+1) takes its splits from kEnd up as products at
			// its first row bottom-up; each row sweeps its left edge.
			q0 := i2 / prodRows * prodRows
			if kEnd = min(q0+prodRows, n2) - 1; i2 == kEnd {
				s.r1Blocks(blk, q0, i2+1)
			}
		}
		s.sweep(grow, s2row, blk, s.f.rowOff, i2, kEnd, 0, hi, maxplus.Pre[T]{})
		// Pair i1-j1 around the seq2 interval.
		around := s2row
		if inside != nil {
			around = s.f.Row(inside, i2)
		}
		s.acc(grow[i2:hi], around[i2:hi], sc1)
		if i1 == j1 {
			// Singleton × singleton: the raw bond weight only; the H seed holds
			// the unpaired alternative, which a summing ⊕ must not count twice.
			grow[i2] = a.k.Add(a.inter(i1, i2), grow[i2])
		}
		// Pair i2-j2 around the seq1 interval; the inner cell degenerates to
		// S¹[i1,j1] where the seq2 interval empties (j2 = i2+1).
		if i2+1 < hi {
			sc2row := a.sc2[i2*n2 : (i2+1)*n2]
			grow[i2+1] = a.k.Add(a.k.Mul(s1Self, sc2row[i2+1]), grow[i2+1])
			a.k.AccumEach(grow[i2+2:hi], s.f.Row(blk, i2+1)[i2+1:hi-1], sc2row[i2+2:hi])
		}
		if s.r2 != nil {
			s.r2(grow, a.star, a.p2, i2, hi, words[i2*s.liveW:(i2+1)*s.liveW])
			if o := s.tileOff[i2]; o >= 0 {
				r0 := i2 / s.cfg.TileI2 * s.cfg.TileI2
				maxplus.TileLive(s.blockTiles(i1, j1)[o:], words, s.liveW, i2, min(prodRows, r0+s.cfg.TileI2-i2, n2-i2), i2, n2)
			}
		} else {
			copy(pre[i2:hi-1], grow[i2:hi-1])
			s.sweep(grow, pre, a.star, s.s2off, i2, hi-1, 0, hi, maxplus.Pre[T]{})
		}
		if a.dom.scaled && !inGuardWindow(grow[i2:hi]) {
			s.tripped.Store(true)
			return
		}
	}
}

// r1Blocks takes R1's splits k2 >= q1-1 for the rows [q0, q1) of block blk:
// one product, whose kernel walks the column tiles [cs, ce) right of q1-1,
// each over the splits [q1-1, ce-1), with A = S² from column q1-1 and B =
// blk's rows from q1, already final (finalize runs bottom-up). A split k2 >=
// j2 reads B's Zero below its diagonal and loses the max: B's row q1+s holds
// it left of column q1+s, which diag = q1-cs states. Where r2 is set, the
// product skips the splits S² dominates (r1Live) and starts at the first
// column tile a live split reaches: a group with none makes no call.
func (s *gsolver[T]) r1Blocks(blk []T, q0, q1 int) {
	n2, p2, off, cols := s.p.N2, s.a.p2, s.f.rowOff, s.prodCols()
	live, lo := s.r1Live(q0, q1)
	if cs := (q1 + lo) / cols * cols; n2-q1 > lo {
		s.a.k.Product(blk[off[q0]+cs:], n2, s.a.s2[q0*p2+q1-1:], p2, blk[off[q1]+cs:], n2, q1-q0, n2-cs, n2-q1, q1-cs, maxplus.Pre[T]{}, live)
	}
}

// r1Live returns the kernel tiles' bit-sets of R1's group [q0, q1), bit s for
// split q1-1+s, and the first split any of them marks (n2 where none does);
// nil and 0 without masks. Split k2 of row i2 is dominated where S²[i2,k2] =
// S²[i2,m] ⊗ S²[m+1,k2] for some i2 <= m < k2: row m+1's own R1 then gives
// S²[i2,k2] ⊗ F[k2+1,j2] <= S²[i2,m] ⊗ F[m+1,j2] in every column
// (docs/ALGORITHM.md §9).
func (s *gsolver[T]) r1Live(q0, q1 int) ([]uint64, int) {
	if s.r2 == nil {
		return nil, 0
	}
	m, stride := q1-q0, s.liveW-(q1-1)>>6
	live, lo := s.r1live[q0/prodRows*4*s.liveW:][:(m-3*(m/4))*stride], s.p.N2
	for i, v := range live {
		if v != 0 {
			lo = min(lo, i%stride*64+bits.TrailingZeros64(v))
		}
	}
	return live, lo
}

// computeTriangleSequential runs the whole pipeline for one triangle on the
// calling goroutine: init, accumulate over k1, finalize. This is the unit
// of work of the coarse-grain schedule.
func (s *gsolver[T]) computeTriangleSequential(i1, j1 int) {
	if h := s.cfg.triangleHook; h != nil {
		h(i1, j1)
	}
	blk := s.f.Block(i1, j1)
	n2 := s.a.n2
	for i2 := 0; i2 < n2; i2++ {
		s.initRow(blk, i1, j1, i2)
	}
	for k1 := i1; k1 < j1; k1++ {
		ablk := s.f.Block(i1, k1)
		bblk := s.f.Block(k1+1, j1)
		for i2 := 0; i2 < n2; i2++ {
			s.accumulateRow(blk, ablk, bblk, i1, j1, k1, i2)
		}
	}
	s.finalize(blk, i1, j1)
}

// accumulateRowTask runs init + the full k1 loop for a single row — the
// unit of work of the fine-grain and hybrid schedules.
func (s *gsolver[T]) accumulateRowTask(i1, j1, i2 int) {
	if h := s.cfg.triangleHook; h != nil && i2 == 0 {
		h(i1, j1)
	}
	blk := s.f.Block(i1, j1)
	s.initRow(blk, i1, j1, i2)
	for k1 := i1; k1 < j1; k1++ {
		s.accumulateRow(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, i2)
	}
}

// accumulateTileTask runs init + the full k1 loop for the row tile
// [r0, r1) — the unit of work of the hybrid-tiled schedule.
func (s *gsolver[T]) accumulateTileTask(i1, j1, r0, r1 int) {
	if h := s.cfg.triangleHook; h != nil && r0 == 0 {
		h(i1, j1)
	}
	blk := s.f.Block(i1, j1)
	for i2 := r0; i2 < r1; i2++ {
		s.initRow(blk, i1, j1, i2)
	}
	for k1 := i1; k1 < j1; k1++ {
		if s.blocks {
			s.r0Blocks(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, r0, r1)
		} else {
			s.r0Tiled(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, r0, r1, true)
		}
	}
}
