package semiring

import (
	"math"

	"github.com/bpmax-go/bpmax/internal/maxplus"
)

// Scalar constrains the element types the generic BPMax fill runs over:
// float32 for the tropical (max, +) instance — the paper's single-precision
// storage choice — and float64 for the log-sum-exp partition instance,
// where the extra mantissa keeps long ⊕ chains stable.
type Scalar interface {
	~float32 | ~float64
}

// Kernels bundles one scalar semiring's streaming kernels in the exact
// shapes the optimized solver consumes. The paper's whole optimization
// story reduces to the row-streaming update y[j] = y[j] ⊕ (a ⊗ x[j]); a
// Kernels value supplies that update (Accum), a whole k2 loop of such
// updates into one row (Sweep), its elementwise form y[j] = y[j] ⊕ (x[j] ⊗
// w[j]) (AccumEach), the row initializer dst[j] = a ⊗ x[j] (MulInto), and the
// scalar ⊕ and ⊗ for per-cell orchestration (Add, Mul).
// Generic callers must take ⊗ from here, never from native `+`: the
// sum-product instance multiplies.
//
// Tie-breaking contract: Add(candidate, accumulator) must return the
// accumulator when the two compare equal, mirroring the specialized
// float32 code's `if w > v { v = w }`. The generic fill always passes the
// running value second, so max-plus instantiations stay bit-identical to
// the hand-written kernels (including NaN propagation order).
type Kernels[T Scalar] struct {
	// Impl names the implementation behind the streaming slots: "avx512" or
	// "avx2" when they are vector assembly, "go" otherwise. MaxPlusKernels
	// and SumProductKernels report the vector body the process chose
	// (maxplus.Impl) where it has one; their Go twins and LogSumExpKernels
	// are always "go".
	Impl string
	// Zero is ⊕'s identity (the "impossible" value); One is ⊗'s identity
	// (the empty structure).
	Zero, One T
	// Add is the scalar ⊕; Mul the scalar ⊗.
	Add func(a, b T) T
	Mul func(a, b T) T
	// Accum streams y[i] = y[i] ⊕ (a ⊗ x[i]) over the common prefix.
	Accum func(y, x []T, a T)
	// AccumEach streams y[k] = y[k] ⊕ (x[k] ⊗ w[k]) over x: a pairing term.
	AccumEach func(y, x, w []T)
	// Sweep streams a k2 loop into row y, y[j] = y[j] ⊕ (a[k2] ⊗ b[off[k2+1]+j])
	// for k2 in [k0, k1) and j in [max(k2+1, from), n): y is indexed by
	// absolute column, b is a table block and off its row offsets (cell (r, j)
	// at b[off[r]+j]). It is the schedules' one k2 stream loop — R0 with b the
	// south triangle, R1 with b the triangle being finalized, R2 with a a copy
	// of the row and b its R2 table, and the substrate tile's step with a = y,
	// from = the tile's first column: the row's final cells [k0, k1) pushed to
	// the columns right of them. a[k0:k1] and the rows of b read must not
	// overlap the columns of y written.
	// pre (maxplus.Pre), unless zero, is two streams y[pre.C0:n] takes first:
	// R0's sweep carries the row's R4 and R3, and each lane takes R4, R3,
	// then its k2 ascending, as from three calls, bit for bit
	// (docs/ALGORITHM.md §4). R1, R2, the DMP and the substrate pass none.
	Sweep func(y, a, b []T, off []int, k0, k1, from, n int, pre maxplus.Pre[T])
	// MulInto initializes dst[i] = a ⊗ x[i] over the common prefix.
	MulInto func(dst, x []T, a T)
	// Product is Sweep's k2 loop for m rows that all take every split, after
	// pre's two streams at c's stride (pre.C0 0; the zero Pre is none):
	// c[r*ldc+j] ⊕= X1[r*ldc+j] ⊗ A1, ⊕= X2[r*ldc+j] ⊗ A2, then ⊕= a[r*lda+s] ⊗
	// b[s*ldb+j] for s in [0, k) ascending (k = 0: the pre-streams alone), for
	// r < m, j < w, c apart from the rest. b holds Zero at every j < s+diag, so
	// a vector body may skip the vectors whose columns all lie there (the Go
	// loops compute them: they change no cell, docs/ALGORITHM.md §9). A 4-row ×
	// 2-vector register tile in the vector bundles, one Accum a (row, split)
	// elsewhere.
	// live, unless nil, keeps only the splits it marks: one bit-set per kernel
	// tile (each four rows, then each row left over), len(live)/tiles words,
	// bit s for split s. Only exact max-plus R0 passes one, leaving out splits
	// another dominates (docs/ALGORITHM.md §9, "Dominated splits").
	Product func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre maxplus.Pre[T], live []uint64)
}

// The bundles whose Sweep is a closure over their Accum are built once here:
// the constructors below run once per fold, on a path the pool keeps free of
// allocations.
var (
	maxPlusGo         = newMaxPlusGo(maxplus.AccumulateGo, maxplus.SweepGo)
	maxPlusGoUnrolled = newMaxPlusGo(maxplus.Accumulate8Go, sweepOver(maxplus.Accumulate8Go))
	logSumExp         = newLogSumExp()
	sumProductGo      = newSumProductGo()
)

// sweepOver builds a bundle's Sweep from its Accum, one call per pre-stream
// and per k2: the form of the two bundles package maxplus has no Sweep body
// for, log-sum-exp and the 8-way unrolled max-plus loops (the portable
// build's fill).
func sweepOver[T Scalar](acc func(y, x []T, a T)) func(y, a, b []T, off []int, k0, k1, from, n int, pre maxplus.Pre[T]) {
	return func(y, a, b []T, off []int, k0, k1, from, n int, pre maxplus.Pre[T]) {
		if pre.X1 != nil {
			acc(y[pre.C0:n], pre.X1[pre.C0:n], pre.A1)
			acc(y[pre.C0:n], pre.X2[pre.C0:n], pre.A2)
		}
		for k2 := k0; k2 < k1; k2++ {
			o, lo := off[k2+1], max(k2+1, from)
			acc(y[lo:n], b[o+lo:o+n], a[k2])
		}
	}
}

// accumEachOver is AccumEach over a bundle's scalar ⊕ and ⊗, in Accum's
// operand order: log-sum-exp's. Max-plus and the sum-product have their own
// bodies in package maxplus.
func accumEachOver[T Scalar](add, mul func(a, b T) T) func(y, x, w []T) {
	return func(y, x, w []T) {
		y, w = y[:len(x)], w[:len(x)]
		for k, v := range x {
			y[k] = add(mul(v, w[k]), y[k])
		}
	}
}

// MaxPlusKernels returns the tropical float32 kernel set backed by package
// maxplus: the vector body it chose for this process (maxplus.Impl), else
// MaxPlusKernelsGo. unroll selects the 8-way unrolled streaming kernel, a
// distinction only the Go bodies have: with the vector bodies active both
// settings run the same code. Both fills (internal/bpmax, internal/nussinov)
// pass true (the unrolled loop is the faster portable body); the parameter
// survives for the plain-loop oracle and the repository benchmark's probe.
func MaxPlusKernels(unroll bool) Kernels[float32] {
	if impl := maxplus.Impl(); impl != "go" {
		return MaxPlusKernelsOf(impl)
	}
	return MaxPlusKernelsGo(unroll)
}

// MaxPlusKernelsOf returns the tropical float32 kernel set on the named body
// of package maxplus, one of maxplus.Impls; "go" is the 8-way unrolled Go
// loops, what a portable build's fill runs. Naming a body other than the
// process's is for the parity tests, which hold every body the CPU can run to
// the same tables.
func MaxPlusKernelsOf(impl string) Kernels[float32] {
	k := maxPlusGoUnrolled
	if impl == "go" {
		return k
	}
	b := maxplus.BodyOf(impl)
	k.Impl, k.Accum, k.AccumEach, k.Sweep, k.MulInto, k.Product = b.Impl, b.Accumulate, b.AccumEach, b.Sweep, b.AddScalarInto, b.Product
	return k
}

// MaxPlusKernelsGo returns the tropical float32 kernel set over maxplus's
// portable Go loops — the functions the pre-generic solver called directly.
// It is what MaxPlusKernels returns on a build or CPU without the vector
// bodies, and the oracle they are tested against: the two sets produce
// bit-identical tables.
func MaxPlusKernelsGo(unroll bool) Kernels[float32] {
	if unroll {
		return maxPlusGoUnrolled
	}
	return maxPlusGo
}

func newMaxPlusGo(acc func(y, x []float32, a float32), sweep func(y, a, b []float32, off []int, k0, k1, from, n int, pre maxplus.Pre[float32])) Kernels[float32] {
	return Kernels[float32]{
		Impl: "go",
		Zero: NegInf,
		One:  0,
		Add: func(a, b float32) float32 {
			if a > b {
				return a
			}
			return b
		},
		Mul:       func(a, b float32) float32 { return a + b },
		Accum:     acc,
		AccumEach: maxplus.AccumEachGo,
		Sweep:     sweep,
		MulInto:   maxplus.AddScalarIntoGo,
		Product:   maxplus.ProductOver(acc),
	}
}

// lse is the numerically stable log(eᵃ + eᵇ): LogSumExp.Add and the
// log-domain kernels' ⊕. A free function so the streaming loops below
// inline it.
func lse(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogSumExpKernels returns the log-domain sum-product kernel set over
// float64: ⊕ = log-sum-exp, ⊗ = + (multiplication of Boltzmann factors in
// log space). Feeding the BPMax recurrence weights w/kT through these
// kernels yields the BPPart-flavoured log partition value; as kT → 0 the
// fill converges to the max-plus score.
func LogSumExpKernels() Kernels[float64] { return logSumExp }

func newLogSumExp() Kernels[float64] {
	accum := func(y, x []float64, a float64) {
		n := len(y)
		if len(x) < n {
			n = len(x)
		}
		x = x[:n]
		y = y[:n]
		for i := range y {
			y[i] = lse(a+x[i], y[i])
		}
	}
	add := func(a, b float64) float64 { return a + b }
	return Kernels[float64]{
		Impl:      "go",
		Zero:      math.Inf(-1),
		One:       0,
		Add:       lse,
		Mul:       add,
		Accum:     accum,
		AccumEach: accumEachOver(lse, add),
		Sweep:     sweepOver(accum),
		Product:   maxplus.ProductOver(accum),
		MulInto: func(dst, x []float64, a float64) {
			n := len(dst)
			if len(x) < n {
				n = len(x)
			}
			x = x[:n]
			dst = dst[:n]
			for i := range dst {
				dst[i] = a + x[i]
			}
		},
	}
}

// SumProductKernels returns the linear-domain sum-product kernel set over
// float64: ⊕ = +, ⊗ = ×, Zero = 0, One = 1 — the Counting semiring in
// streaming form, backed by package maxplus's float64 bodies: the one the
// process chose (maxplus.Impl), the portable Go loops where it has no vector
// body. Fed Boltzmann factors e^{w/kT} it computes the same ensemble sum as LogSumExpKernels with
// one multiply and one add per candidate and no transcendental; the caller
// keeps the values inside float64's range by pre-scaling its inputs per
// nucleotide (see internal/bpmax's partition fill) and takes the log once, at
// the boundary. A forbidden weight is an exact 0, which annihilates under ⊗
// and is neutral under ⊕ like -Inf does in the log domain.
//
// Numeric contract: every candidate is ⊗ then ⊕ — the product rounded to
// float64, then the sum rounded — in every body on every build, never a
// fused multiply-add. Every body therefore produces bit-identical tables,
// and which of them ran is not an input of the result.
func SumProductKernels() Kernels[float64] { return SumProductKernelsOf(maxplus.Impl()) }

// SumProductKernelsOf returns the sum-product kernel set on the named body of
// package maxplus, one of maxplus.Impls; "go" is the portable Go loops, the
// oracle the vector bodies are tested against. As with MaxPlusKernelsOf, a
// body other than the process's is for the parity tests.
func SumProductKernelsOf(impl string) Kernels[float64] {
	k := sumProductGo
	if impl == "go" {
		return k
	}
	b := maxplus.BodyOf(impl)
	k.Impl, k.Accum, k.AccumEach, k.Sweep, k.MulInto, k.Product = b.Impl, b.SumProduct, b.SumProductEach, b.SumProductSweep, b.MulScalarInto, b.SumProductProduct
	return k
}

func newSumProductGo() Kernels[float64] {
	return Kernels[float64]{
		Impl:      "go",
		Zero:      0,
		One:       1,
		Add:       func(a, b float64) float64 { return a + b },
		Mul:       func(a, b float64) float64 { return a * b },
		Accum:     maxplus.SumProductGo,
		AccumEach: maxplus.SumProductEachGo,
		Sweep:     maxplus.SumProductSweepGo,
		MulInto:   maxplus.MulScalarIntoGo,
		Product:   maxplus.SumProductProductGo,
	}
}
