// Package maxplus provides the streaming kernels at the heart of the
// optimized BPMax implementation, in the two algebras the fill serves.
//
// The paper's entire optimization story reduces to making the innermost
// loop the streaming update
//
//	Y[j] = max(a + X[j], Y[j])
//
// over contiguous single-precision rows (arithmetic intensity 2 FLOPs per
// 3 memory operations = 1/6 FLOP/byte), which the C compiler then
// auto-vectorizes. gc does not, so every kernel the fill calls is a slot of
// a Body — the stream (Accum), its elementwise form (AccumEach), the row
// initializer (MulInto), a whole k2 loop of streams into one row (Sweep), the
// same loop for a group of rows (Product), and max-plus's R2 and Live — and
// there is one Body a kernel set: AVX-512 (avx512_amd64.s), AVX2
// (avx2_amd64.s) and the Go loops (portable.go), the widest the CPU and the
// operating system support chosen once at start-up, with no option to pick
// another. A Body is generic over its element type, one algebra a type:
// Body[float32] is max-plus, Body[float64] BPPart's partition function, the
// same stream in the (+, ×) algebra, Y[j] = Y[j] + a·X[j], on the same
// assembly skeletons at half the lanes. Sweep is the paper's register tile
// (its §V future work): it holds a block of four vectors of Y in registers —
// 256 bytes on AVX-512, 128 on AVX2 — while a whole k2 loop of streams passes
// through it, so Y makes one trip through memory per block, not one per k2;
// Product holds 4 rows × 2 vectors. R2 takes a row's R2 skipping the splits R2
// itself dominates and records the row's live columns, which the products
// that read the row later skip by; Live records the same words for a
// substrate closure row.
//
// Every body produces the same bits. Impl names the one in use, Impls every
// one the CPU can run, and BodyOf hands any of them to package semiring,
// whose kernel bundles embed it — the fills' one route to the kernels — and
// to the tests. The Go body is the loops a portable build's fill runs (the
// max-plus stream 8-way unrolled); the plain loops (AccumulateGo, SweepGo,
// ProductGo, …) are the oracle every body is tested against.
//
// The gather kernel (DotMaxPlusStride) implements the *rejected* schedules
// that keep k2 innermost; it exists so the benchmarks can demonstrate why
// those schedules lose.
package maxplus

import (
	"fmt"
	"unsafe"
)

// isa names one body of the streaming kernels.
type isa uint8

const (
	isaGo isa = iota
	isaAVX2
	isaAVX512
)

func (v isa) String() string { return [...]string{"go", "avx2", "avx512"}[v] }

// Impl names the body behind the exported streaming kernels in this process:
// "avx512", "avx2" or "go".
func Impl() string { return process.String() }

// Impls names every body this process can run, widest first: Impl's, the
// narrower vector bodies (a CPU with AVX-512 runs the AVX2 ones too) and "go".
func Impls() []string {
	names := make([]string, 0, process+1)
	for v := int(process); v >= 0; v-- {
		names = append(names, isa(v).String())
	}
	return names
}

// Body is one body's kernels in one algebra: T float32 is max-plus, T
// float64 the sum-product. Each slot runs behind the argument checks its doc
// states. Package semiring's Kernels embeds a Body beside the scalar ⊕ and ⊗,
// in whose terms the slots are written. The bodies Impl did not choose are
// there for the differential tests and the parity fuzzers, which hold every
// body the CPU can run to the plain Go loops.
type Body[T ~float32 | ~float64] struct {
	// Impl names the body: "avx512", "avx2" or "go".
	Impl string
	// Accum streams y[i] = y[i] ⊕ (a ⊗ x[i]) over the common prefix. x must
	// not overlap the part of y it updates.
	Accum func(y, x []T, a T)
	// AccumEach streams y[k] = y[k] ⊕ (x[k] ⊗ w[k]) over x: a pairing term.
	AccumEach func(y, x, w []T)
	// MulInto initializes dst[i] = a ⊗ x[i] over the common prefix.
	MulInto func(dst, x []T, a T)
	// Sweep streams a k2 loop into row y, y[j] = y[j] ⊕ (a[k2] ⊗ b[off[k2+1]+j])
	// for k2 in [k0, k1) and j in [max(k2+1, from), n): y is indexed by
	// absolute column, b is a table block and off its row offsets (cell (r, j)
	// at b[off[r]+j]). It is the schedules' one k2 stream loop — R0 with b the
	// south triangle, R1 with b the triangle being finalized, R2 with a a copy
	// of the row and b its R2 table, and the substrate tile's step with a = y,
	// from = the tile's first column: the row's final cells [k0, k1) pushed to
	// the columns right of them. a[k0:k1] and the rows of b read must not
	// overlap the columns of y written.
	// pre, unless zero, is two streams y[pre.C0:n] takes first: R0's sweep
	// carries the row's R4 and R3, and each lane takes R4, R3, then its k2
	// ascending, as from three calls, bit for bit (docs/ALGORITHM.md §4). R1,
	// R2, the DMP and the substrate pass none.
	Sweep func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T])
	// Product is Sweep's k2 loop for m rows that all take every split, after
	// pre's two streams at c's stride (pre.C0 0; the zero Pre is none):
	// c[r*ldc+j] ⊕= X1[r*ldc+j] ⊗ A1, ⊕= X2[r*ldc+j] ⊗ A2, then ⊕= a[r*lda+s] ⊗
	// b[s*ldb+j] for s in [0, k) ascending (k = 0: the pre-streams alone), for
	// r < m, j < w, c apart from the rest. b holds Zero at every j < s+diag,
	// whose candidates change no cell (docs/ALGORITHM.md §9), so every body
	// skips columns there: the vector bodies the vectors that lie wholly in
	// it, the Go loops the columns left of s+diag rounded down to a multiple
	// of 8. A 4-row × 2-vector register tile in the vector bodies, one Accum
	// a (row, split) in the Go loops.
	// live, unless nil, keeps only the splits it marks: one bit-set per kernel
	// tile (each four rows, then each row left over), len(live)/tiles words,
	// bit s for split s. An exact max-plus fill passes one to R0's and R1's
	// products and to the substrate's cross-tile products, leaving out the
	// splits another dominates (docs/ALGORITHM.md §9, "Dominated splits").
	Product func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64)
	// R2 is finalize's max-plus R2 of one row, in place, with the row's live
	// words (R2Go's loop). Nil on float64.
	R2 func(c, star []T, lds, k0, n int, live []uint64)
	// Live finishes a substrate closure row over the columns [lo, hi) and
	// records its live words (LiveGo's loop). Nil on float64.
	Live func(y, pre []T, lo, hi int, live []uint64)
}

// BodyOf returns the named body's kernels over T: max-plus for float32, the
// sum-product for float64. It panics unless impl is one of Impls.
func BodyOf[T ~float32 | ~float64](impl string) Body[T] {
	for v := isaGo; v <= process; v++ {
		if v.String() == impl {
			if b, ok := any(&maxPlusBodies[v]).(*Body[T]); ok {
				return *b
			}
			return *any(&sumProductBodies[v]).(*Body[T])
		}
	}
	panic(fmt.Sprintf("maxplus: no %q body in this process (it runs %v)", impl, Impls()))
}

// The bodies, indexed by isa. The Go bodies are the Go loops behind the
// vector bodies' checks: the max-plus stream 8-way unrolled, the plain loops
// elsewhere.
var (
	maxPlusBodies = [...]Body[float32]{
		isaGo: {
			Impl:      "go",
			Accum:     Accumulate8Go,
			AccumEach: AccumEachGo,
			MulInto:   AddScalarIntoGo,
			Sweep:     goSweep("Sweep", SweepOver(Accumulate8Go)),
			Product:   productOf(ProductOver(Accumulate8Go), nil),
			R2:        r2Of(nil),
			Live:      liveOf(nil),
		},
		isaAVX2: {
			Impl:      "avx2",
			Accum:     accumulate2,
			AccumEach: vectorEach(accumEachAVX2),
			MulInto:   addScalarInto2,
			Sweep:     sweep2,
			Product:   productOf(nil, productAVX2),
			R2:        r2Of(r2AVX2),
			Live:      liveOf(liveAVX2),
		},
		isaAVX512: {
			Impl:      "avx512",
			Accum:     accumulate512,
			AccumEach: vectorEach(accumEachAVX512),
			MulInto:   addScalarInto512,
			Sweep:     sweep512,
			Product:   productOf(nil, productAVX512),
			R2:        r2Of(r2AVX512),
			Live:      liveOf(liveAVX512),
		},
	}
	sumProductBodies = [...]Body[float64]{
		isaGo: {
			Impl:      "go",
			Accum:     SumProductGo,
			AccumEach: SumProductEachGo,
			MulInto:   MulScalarIntoGo,
			Sweep:     goSweep("SumProductSweep", SumProductSweepGo),
			Product:   productOf(SumProductProductGo, nil),
		},
		isaAVX2: {
			Impl:      "avx2",
			Accum:     sumProduct2,
			AccumEach: vectorEach(sumProductEachAVX2),
			MulInto:   mulScalarInto2,
			Sweep:     sumProductSweep2,
			Product:   productOf(nil, sumProductProductAVX2),
		},
		isaAVX512: {
			Impl:      "avx512",
			Accum:     sumProduct512,
			AccumEach: vectorEach(sumProductEachAVX512),
			MulInto:   mulScalarInto512,
			Sweep:     sumProductSweep512,
			Product:   productOf(nil, sumProductProductAVX512),
		},
	}
)

// Accumulate performs the streaming update y[i] = max(a + x[i], y[i]) over
// the common prefix of x and y. This is simultaneously Algorithm 3's
// micro-benchmark kernel and the inner loop of the double max-plus. x must
// not overlap the part of y it updates. It is the process body's Accum, or
// the plain loop (AccumulateGo) where that is the Go body.
func Accumulate(y, x []float32, a float32) {
	if process == isaGo {
		AccumulateGo(y, x, a)
		return
	}
	maxPlusBodies[process].Accum(y, x, a)
}

// Accumulate8 is the process body's Accum: Accumulate with an 8-way unrolled
// main loop where the Go body runs (the unroll factor matches one AVX2
// register of float32); with the vector bodies active it is Accumulate.
func Accumulate8(y, x []float32, a float32) { maxPlusBodies[process].Accum(y, x, a) }

func accumulate2(y, x []float32, a float32) {
	if n := min(len(y), len(x)); n > 0 {
		accumulateAVX2(&y[0], &x[0], n, a)
	}
}

func accumulate512(y, x []float32, a float32) {
	if n := min(len(y), len(x)); n > 0 {
		accumulateAVX512(&y[0], &x[0], n, a)
	}
}

// vectorEach binds a vector body of Body.AccumEach, the pairing stream
// y[k] = y[k] ⊕ x[k] ⊗ w[k] over x, behind the Go loops' checks.
func vectorEach[T float32 | float64](body func(y, x, w *T, n int)) func(y, x, w []T) {
	return func(y, x, w []T) {
		if n := len(x); n > 0 {
			y, w = y[:n], w[:n]
			body(&y[0], &x[0], &w[0], n)
		}
	}
}

// The vector bodies of max-plus MulInto: dst[i] = a + x[i] over the common
// prefix of dst and x, the row initialization (G = S¹(i1,j1) + S² row) that
// seeds the H accumulator before the R0/R3/R4 streams run.
func addScalarInto2(dst, x []float32, a float32) {
	if n := min(len(dst), len(x)); n > 0 {
		addScalarIntoAVX2(&dst[0], &x[0], n, a)
	}
}

func addScalarInto512(dst, x []float32, a float32) {
	if n := min(len(dst), len(x)); n > 0 {
		addScalarIntoAVX512(&dst[0], &x[0], n, a)
	}
}

// Pre is the pair of streams a sweep may apply to its row ahead of its k2
// loop, in this order:
//
//	y[j] = y[j] ⊕ X1[j] ⊗ A1, then y[j] = y[j] ⊕ X2[j] ⊗ A2   for j in [C0, n)
//
// X1 and X2 are indexed by absolute column like y and must not overlap
// y[C0:n]; from <= C0 <= k0, and k0 may equal k1 (the streams alone). They
// are the fill's R4 and R3 riding in a row's R0 sweep: every lane takes them,
// then its k2 in ascending order, as from three calls, bit for bit, and y
// makes one trip through memory for all three. The zero Pre (X1 nil) is none.
type Pre[T ~float32 | ~float64] struct {
	X1, X2 []T
	A1, A2 T
	C0     int
}

// sweep2 and sweep512 are the avx2 and avx512 bodies of max-plus Sweep: pre's
// two streams, then a whole k2 loop of streams into one accumulator row,
//
//	for k2 in [k0, k1): y[j] = max(a[k2] + b[off[k2+1]+j], y[j])  for j in [max(k2+1, from), n)
//
// with 0 <= k0 <= k1 < n and 0 <= from < n (every stream is non-empty); a
// sweep with k0 == k1 and no pre does nothing. sumProductSweep2 and 512 are
// the float64 bodies', the same loop in the (+, ×) algebra, y[j] + a[k2] *
// b[off[k2+1]+j], under the same requirements and checks.
//
// y is a table row indexed by absolute column, a the row of left operands,
// b a table block and off its row offsets: cell (r, j) of the block is
// b[off[r]+j], whichever memory map laid it out. This is the R0 loop of the
// double max-plus (a = a row of the west triangle, b = the south triangle,
// pre its R4 and R3), the R1 loop of finalize (a = a row of S², b = the
// triangle itself) and, with a left column bound, the substrate tile's step
// (a = y itself, from = the tile's first column: the cells [k0, k1) of the
// row, final, pushed to the columns right of them). The rows of b it reads
// must not overlap the columns of y it writes, y[max(k0+1, from):n], and
// neither may a[k0:k1]; y is held in registers across the k2 loop, so a store
// to it is not seen by a later k2's loads.
//
// Every body runs behind one set of checks: the arguments, then every row. A
// vector body calls its assembly, which looks at the rows itself, several a
// step, and does nothing if one lies outside b, only on arguments
// sweepArgsOK passes; everything else goes to sweepRest, whose Go loops — the
// same bits — run the streams before a bad row, and whose panic names it. The
// Go bodies run sweepRest alone (goSweep).
// The assembly is called directly, not through a func value: a call fewer,
// on a path the partition fill takes about ten thousand times a fold.
func sweep2(y, a, b []float32, off []int, k0, k1, from, n int, pre Pre[float32]) {
	if k0 >= k1 && pre.X1 == nil || len(a) == 0 || len(b) == 0 || !sweepArgsOK(len(y), len(a), len(off), k0, k1, from, n, &pre) ||
		!sweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b), pre.C0, unsafe.SliceData(pre.X1), pre.A1, unsafe.SliceData(pre.X2), pre.A2) {
		sweepRest("Sweep", SweepGo, y, a, b, off, k0, k1, from, n, &pre)
	}
}

func sweep512(y, a, b []float32, off []int, k0, k1, from, n int, pre Pre[float32]) {
	if k0 >= k1 && pre.X1 == nil || len(a) == 0 || len(b) == 0 || !sweepArgsOK(len(y), len(a), len(off), k0, k1, from, n, &pre) ||
		!sweepAVX512(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b), pre.C0, unsafe.SliceData(pre.X1), pre.A1, unsafe.SliceData(pre.X2), pre.A2) {
		sweepRest("Sweep", SweepGo, y, a, b, off, k0, k1, from, n, &pre)
	}
}

func sumProductSweep2(y, a, b []float64, off []int, k0, k1, from, n int, pre Pre[float64]) {
	if k0 >= k1 && pre.X1 == nil || len(a) == 0 || len(b) == 0 || !sweepArgsOK(len(y), len(a), len(off), k0, k1, from, n, &pre) ||
		!sumProductSweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b), pre.C0, unsafe.SliceData(pre.X1), pre.A1, unsafe.SliceData(pre.X2), pre.A2) {
		sweepRest("SumProductSweep", SumProductSweepGo, y, a, b, off, k0, k1, from, n, &pre)
	}
}

func sumProductSweep512(y, a, b []float64, off []int, k0, k1, from, n int, pre Pre[float64]) {
	if k0 >= k1 && pre.X1 == nil || len(a) == 0 || len(b) == 0 || !sweepArgsOK(len(y), len(a), len(off), k0, k1, from, n, &pre) ||
		!sumProductSweepAVX512(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b), pre.C0, unsafe.SliceData(pre.X1), pre.A1, unsafe.SliceData(pre.X2), pre.A2) {
		sweepRest("SumProductSweep", SumProductSweepGo, y, a, b, off, k0, k1, from, n, &pre)
	}
}

// goSweep binds a Go body's Sweep: goLoops behind sweepRest's checks.
func goSweep[T float32 | float64](name string, goLoops func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T])) func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T]) {
	return func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T]) {
		sweepRest(name, goLoops, y, a, b, off, k0, k1, from, n, &pre)
	}
}

// sweepRest is a sweep no vector body ran: nothing, where there are no
// streams; a panic naming the arguments, where they disagree; else goLoops up
// to the first row outside b, and a panic naming that row.
func sweepRest[T float32 | float64](name string, goLoops func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T]),
	y, a, b []T, off []int, k0, k1, from, n int, pre *Pre[T]) {
	if k0 >= k1 && pre.X1 == nil {
		return
	}
	if !sweepArgsOK(len(y), len(a), len(off), k0, k1, from, n, pre) {
		panic(fmt.Sprintf("maxplus: %s k2 range [%d,%d) from column %d to column %d outside y[:%d], a[:%d], off[:%d], or pre-streams from column %d outside it or X1[:%d], X2[:%d]",
			name, k0, k1, from, n, len(y), len(a), len(off), pre.C0, len(pre.X1), len(pre.X2)))
	}
	end := rowsInside(len(b), off, k0, k1, from, n)
	goLoops(y, a, b, off, k0, end, from, n, *pre)
	if end < k1 {
		panicSweepRow(name, len(b), off, end, n)
	}
}

// sweepArgsOK reports whether a sweep's k2 range and column bounds agree with
// each other and with the lengths of y, a and off, and its pre-streams, if
// any, with them and the lengths of their rows.
func sweepArgsOK[T float32 | float64](ylen, alen, offlen, k0, k1, from, n int, pre *Pre[T]) bool {
	return k0 >= 0 && k0 <= k1 && k1 < n && from >= 0 && from < n && n <= ylen && k1 <= alen && k1 < offlen &&
		(pre.X1 == nil || pre.C0 >= from && pre.C0 <= k0 && len(pre.X1) >= n && len(pre.X2) >= n)
}

// rowsInside returns the end of the leading run of k2 in [k0, k1) whose rows
// — b[off[k2+1]+j] for j in [max(k2+1, from), n) — lie inside a b of blen
// elements: k1 when they all do.
func rowsInside(blen int, off []int, k0, k1, from, n int) int {
	for i, o := range off[k0+1 : k1+1] {
		if k2 := k0 + i; o+max(k2+1, from) < 0 || o+n > blen {
			return k2
		}
	}
	return k1
}

func panicSweepRow(name string, blen int, off []int, k2, n int) {
	panic(fmt.Sprintf("maxplus: %s row %d at offset %d to column %d outside b[:%d]", name, k2+1, off[k2+1], n, blen))
}

// The vector bodies of float64 Accum: the streaming update
// y[i] = y[i] + a * x[i] over the common prefix of x and y, Accumulate in the
// (+, ×) algebra over float64 and the inner loop of the scaled partition
// fill. The product is rounded before the add — two operations, never a
// fused multiply-add — in the vector bodies and the Go loop (SumProductGo)
// alike. x must not overlap the part of y it updates.
func sumProduct2(y, x []float64, a float64) {
	if n := min(len(y), len(x)); n > 0 {
		sumProductAVX2(&y[0], &x[0], n, a)
	}
}

func sumProduct512(y, x []float64, a float64) {
	if n := min(len(y), len(x)); n > 0 {
		sumProductAVX512(&y[0], &x[0], n, a)
	}
}

// The vector bodies of float64 MulInto: dst[i] = a * x[i] over the common
// prefix of dst and x, the max-plus MulInto in the (+, ×) algebra.
func mulScalarInto2(dst, x []float64, a float64) {
	if n := min(len(dst), len(x)); n > 0 {
		mulScalarIntoAVX2(&dst[0], &x[0], n, a)
	}
}

func mulScalarInto512(dst, x []float64, a float64) {
	if n := min(len(dst), len(x)); n > 0 {
		mulScalarIntoAVX512(&dst[0], &x[0], n, a)
	}
}

// productOf binds a body of Body.Product: vec, a register tile of 4 rows × 2
// vectors, or goLoops where vec is nil, behind checks whose panic names the argument
// found bad. The checks compare integers alone; the names and the message are
// built only for a panic.
func productOf[T float32 | float64](goLoops func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64),
	vec func(c *T, ldc int, a *T, lda int, b *T, ldb int, m, w, k, diag int, x1 *T, a1 T, x2 *T, a2 T, live *uint64, lstride int)) func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64) {
	return func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64) {
		x1, x2 := len(pre.X1), len(pre.X2)
		if pre.X1 == nil {
			x1, x2 = len(c), len(c)
		}
		if !operandOK(len(c), ldc, m, w) || !operandOK(len(a), lda, m, k) || !operandOK(len(b), ldb, k, w) ||
			!operandOK(x1, ldc, m, w) || !operandOK(x2, ldc, m, w) || pre.C0 != 0 {
			panicProduct(len(c), ldc, len(a), lda, len(b), ldb, m, w, k, x1, x2, pre.C0)
		}
		if lstride := len(live) / max(ProductTiles(m), 1); live != nil && lstride*64 < k {
			panic(fmt.Sprintf("maxplus: Product live[:%d] short of %d tiles of %d splits", len(live), ProductTiles(m), k))
		}
		if vec == nil {
			goLoops(c, ldc, a, lda, b, ldb, m, w, k, diag, pre, live)
		} else if m > 0 && w > 0 && (k > 0 || pre.X1 != nil) {
			vec(&c[0], ldc, unsafe.SliceData(a), lda, unsafe.SliceData(b), ldb, m, w, k, max(diag, -k), unsafe.SliceData(pre.X1), pre.A1, unsafe.SliceData(pre.X2), pre.A2, unsafe.SliceData(live), len(live)/max(ProductTiles(m), 1))
		}
	}
}

// r2Of binds a body of Body.R2, R2Go where vec is nil, behind checks whose
// panic names the arguments: 0 <= k0 <= n <= len(c), lds >= n, ⌈n/64⌉ words
// of live and, where a split exists (n-k0 >= 2), rows k0+1 … n-1 of star to
// column n. It clears the words and hands vec a row with a column in it.
func r2Of(vec func(c, star *float32, lds, k0, n int, live *uint64)) func(c, star []float32, lds, k0, n int, live []uint64) {
	return func(c, star []float32, lds, k0, n int, live []uint64) {
		words := (n + 63) / 64
		if k0 < 0 || k0 > n || n > len(c) || lds < n || words > len(live) || n-k0 >= 2 && (n-1)*lds+n > len(star) {
			panic(fmt.Sprintf("maxplus: R2 columns [%d,%d) outside c[:%d], star[:%d] at stride %d or live[:%d]", k0, n, len(c), len(star), lds, len(live)))
		}
		clear(live[:words])
		if vec == nil {
			R2Go(c, star, lds, k0, n, live)
		} else if k0 < n {
			vec(&c[0], unsafe.SliceData(star), lds, k0, n, &live[0])
		}
	}
}

// liveOf binds a body of Body.Live, LiveGo where vec is nil, behind checks
// whose panic names the arguments: 0 <= lo <= hi, y and pre hold column hi-1
// and live its word.
func liveOf(vec func(y, pre *float32, lo, hi int, live *uint64)) func(y, pre []float32, lo, hi int, live []uint64) {
	return func(y, pre []float32, lo, hi int, live []uint64) {
		if lo < 0 || lo > hi || hi > len(y) || hi > len(pre) || hi > 64*len(live) {
			panic(fmt.Sprintf("maxplus: Live columns [%d,%d) outside y[:%d], pre[:%d] or live[:%d]", lo, hi, len(y), len(pre), len(live)))
		}
		if vec == nil {
			LiveGo(y, pre, lo, hi, live)
		} else if lo < hi {
			vec(&y[0], &pre[0], lo, hi, &live[0])
		}
	}
}

// operandOK reports whether a product's operand of rows × width cells, ld
// apart, passes panicProduct's three checks against its size cells.
func operandOK(size, ld, rows, width int) bool {
	return rows >= 0 && width >= 0 && ld >= width && (rows == 0 || width == 0 || (rows-1)*ld+width <= size)
}

// panicProduct panics naming the first operand of a product, in the order
// c, a, b, x1, x2, that operandOK rejects, and the check it fails, or else
// the pre-streams' first column.
func panicProduct(clen, ldc, alen, lda, blen, ldb, m, w, k, x1len, x2len, c0 int) {
	for _, d := range [...]struct {
		x, r, wd              string // the operand's, its rows' and its width's names
		size, ld, rows, width int
	}{{"c", "m", "w", clen, ldc, m, w}, {"a", "m", "k", alen, lda, m, k}, {"b", "k", "w", blen, ldb, k, w},
		{"x1", "m", "w", x1len, ldc, m, w}, {"x2", "m", "w", x2len, ldc, m, w}} {
		switch {
		case d.rows < 0 || d.width < 0:
			panic(fmt.Sprintf("maxplus: Product %s %d, %s %d: a negative dimension", d.r, d.rows, d.wd, d.width))
		case d.ld < d.width:
			panic(fmt.Sprintf("maxplus: Product ld%s %d below %s %d", d.x, d.ld, d.wd, d.width))
		case d.rows > 0 && d.width > 0 && (d.rows-1)*d.ld+d.width > d.size:
			panic(fmt.Sprintf("maxplus: Product %s[:%d] short of %d rows of %d at stride %d", d.x, d.size, d.rows, d.width, d.ld))
		}
	}
	panic(fmt.Sprintf("maxplus: Product pre-streams from column %d, not 0", c0))
}

// DotMaxPlusStride computes max_i (a[i] + b[i*stride]), the column-gather
// reduction the original BPMax schedule performs when k2 is innermost and
// the second operand is walked down a column of the bounding box.
func DotMaxPlusStride(a, b []float32, stride int) float32 {
	best := float32(-3.4e38)
	bi := 0
	for i := 0; i < len(a); i++ {
		if v := a[i] + b[bi]; v > best {
			best = v
		}
		bi += stride
	}
	return best
}

// FlopsPerElement is the number of max-plus floating-point operations
// (one add, one max) performed per element by Accumulate — the convention
// the paper uses when converting element counts to GFLOPS.
const FlopsPerElement = 2
