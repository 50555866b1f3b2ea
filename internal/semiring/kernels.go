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
// story reduces to the row-streaming update y[j] = y[j] ⊕ (a ⊗ x[j]); the
// embedded maxplus.Body supplies that update (Accum) and every kernel built
// on it (AccumEach, MulInto, Sweep, Product, and max-plus's R2 and Live),
// and the bundle adds the scalar ⊕ and ⊗ for per-cell orchestration (Add,
// Mul) and their identities. Generic callers must take ⊗ from here, never
// from native `+`: the sum-product instance multiplies.
//
// Impl names the body behind the streaming slots: "avx512" or "avx2" when
// they are vector assembly, "go" otherwise. MaxPlusKernels and
// SumProductKernels report the vector body the process chose (maxplus.Impl)
// where it has one; the plain-loop oracle and LogSumExpKernels are always
// "go".
//
// Tie-breaking contract: Add(candidate, accumulator) must return the
// accumulator when the two compare equal, mirroring the specialized
// float32 code's `if w > v { v = w }`. The generic fill always passes the
// running value second, so max-plus instantiations stay bit-identical to
// the hand-written kernels (including NaN propagation order).
type Kernels[T Scalar] struct {
	maxplus.Body[T]
	// Zero is ⊕'s identity (the "impossible" value); One is ⊗'s identity
	// (the empty structure).
	Zero, One T
	// Add is the scalar ⊕; Mul the scalar ⊗.
	Add func(a, b T) T
	Mul func(a, b T) T
}

// kernelsOf is the named body of package maxplus beside a semiring's scalar
// operations: every bundle but log-sum-exp's. It runs once per fold, on a
// path the pool keeps free of allocations.
func kernelsOf[T Scalar](impl string, zero, one T, add, mul func(a, b T) T) Kernels[T] {
	return Kernels[T]{Body: maxplus.BodyOf[T](impl), Zero: zero, One: one, Add: add, Mul: mul}
}

// The bundles with slots of their own are built once here: the plain-loop
// oracle and log-sum-exp.
var (
	maxPlusGo = newMaxPlusGo()
	logSumExp = newLogSumExp()
)

func maxAdd(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func plus32(a, b float32) float32 { return a + b }

func plus64(a, b float64) float64 { return a + b }

func times64(a, b float64) float64 { return a * b }

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
// the Go body. unroll selects the Go body's 8-way unrolled streams, a
// distinction only the Go loops have: with the vector bodies active both
// settings run the same code, and without them false is the plain-loop
// oracle (MaxPlusKernelsGo). Both fills (internal/bpmax, internal/nussinov)
// pass true; the parameter survives for the oracle and the repository
// benchmark's probe.
func MaxPlusKernels(unroll bool) Kernels[float32] {
	if impl := maxplus.Impl(); impl != "go" || unroll {
		return MaxPlusKernelsOf(impl)
	}
	return maxPlusGo
}

// MaxPlusKernelsOf returns the tropical float32 kernel set on the named body
// of package maxplus, one of maxplus.Impls; "go" is the 8-way unrolled Go
// loops, what a portable build's fill runs. Naming a body other than the
// process's is for the parity tests, which hold every body the CPU can run to
// the same tables.
func MaxPlusKernelsOf(impl string) Kernels[float32] {
	return kernelsOf(impl, NegInf, 0, maxAdd, plus32)
}

// MaxPlusKernelsGo returns the tropical float32 kernel set over maxplus's
// plain Go loops — AccumulateGo, SweepGo, ProductGo beside the Go body's other
// slots — the oracle every body, the Go body (MaxPlusKernelsOf("go")) among
// them, is tested against: the sets produce bit-identical tables.
func MaxPlusKernelsGo() Kernels[float32] {
	return maxPlusGo
}

func newMaxPlusGo() Kernels[float32] {
	k := MaxPlusKernelsOf("go")
	k.Accum, k.Sweep, k.Product = maxplus.AccumulateGo, maxplus.SweepGo, maxplus.ProductGo
	return k
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
// fill converges to the max-plus score. It has no R2 or Live.
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
	return Kernels[float64]{
		Body: maxplus.Body[float64]{
			Impl:      "go",
			Accum:     accum,
			AccumEach: accumEachOver(lse, plus64),
			Sweep:     maxplus.SweepOver(accum),
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
		},
		Zero: math.Inf(-1),
		One:  0,
		Add:  lse,
		Mul:  plus64,
	}
}

// SumProductKernels returns the linear-domain sum-product kernel set over
// float64: ⊕ = +, ⊗ = ×, Zero = 0, One = 1 — the Counting semiring in
// streaming form, backed by package maxplus's float64 bodies: the one the
// process chose (maxplus.Impl), the Go loops where it has no vector body. It
// has no R2 or Live. Fed Boltzmann factors e^{w/kT} it computes the same
// ensemble sum as LogSumExpKernels with one multiply and one add per
// candidate and no transcendental; the caller keeps the values inside
// float64's range by pre-scaling its inputs per nucleotide (see
// internal/bpmax's partition fill) and takes the log once, at the boundary.
// A forbidden weight is an exact 0, which annihilates under ⊗ and is neutral
// under ⊕ like -Inf does in the log domain.
//
// Numeric contract: every candidate is ⊗ then ⊕ — the product rounded to
// float64, then the sum rounded — in every body on every build, never a
// fused multiply-add. Every body therefore produces bit-identical tables,
// and which of them ran is not an input of the result.
func SumProductKernels() Kernels[float64] { return SumProductKernelsOf(maxplus.Impl()) }

// SumProductKernelsOf returns the sum-product kernel set on the named body of
// package maxplus, one of maxplus.Impls; "go" is the Go loops, the oracle the
// vector bodies are tested against. As with MaxPlusKernelsOf, a body other
// than the process's is for the parity tests.
func SumProductKernelsOf(impl string) Kernels[float64] {
	return kernelsOf(impl, 0, 1, plus64, times64)
}
