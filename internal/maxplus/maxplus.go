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
// auto-vectorizes. gc does not, so the kernels the fill calls — Accumulate,
// Accumulate8, AddScalarInto and the fused k2 loop Sweep —
// have hand-written AVX2 bodies (avx2_amd64.s), chosen once at start-up when
// the CPU and the operating system support them. BPPart's partition function
// is the same stream in the (+, ×) algebra over float64, Y[j] = Y[j] + a·X[j]:
// SumProduct, SumProductSweep and MulScalarInto are those kernels, on the
// same assembly skeleton at 4 lanes. The Go loops they all replace
// (portable.go) are every other build: other architectures, the `purego`
// tag, an amd64 CPU without AVX2. Both produce the same bits; Impl names the
// one in use.
//
// The gather kernel (DotMaxPlusStride) implements the *rejected* schedules
// that keep k2 innermost; it exists so the benchmarks can demonstrate why
// those schedules lose.
package maxplus

import "fmt"

// Impl names the bodies behind the exported streaming kernels in this
// process: "avx2" or "go".
func Impl() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// Accumulate performs the streaming update y[i] = max(a + x[i], y[i]) over
// the common prefix of x and y. This is simultaneously Algorithm 3's
// micro-benchmark kernel and the inner loop of the double max-plus. x must
// not overlap the part of y it updates.
func Accumulate(y, x []float32, a float32) {
	if useAVX2 {
		if n := min(len(y), len(x)); n > 0 {
			accumulateAVX2(&y[0], &x[0], n, a)
		}
		return
	}
	AccumulateGo(y, x, a)
}

// Accumulate8 is Accumulate with an 8-way unrolled main loop where the
// portable bodies run (the unroll factor matches one AVX2 register of
// float32); with the vector bodies active it is Accumulate.
func Accumulate8(y, x []float32, a float32) {
	if useAVX2 {
		Accumulate(y, x, a)
		return
	}
	Accumulate8Go(y, x, a)
}

// AddScalarInto initializes dst[i] = a + x[i] over the common prefix of dst
// and x: the row-initialization kernel (G = S¹(i1,j1) + S² row) that seeds
// the H accumulator before the R0/R3/R4 streams run.
func AddScalarInto(dst, x []float32, a float32) {
	if useAVX2 {
		if n := min(len(dst), len(x)); n > 0 {
			addScalarIntoAVX2(&dst[0], &x[0], n, a)
		}
		return
	}
	AddScalarIntoGo(dst, x, a)
}

// Sweep runs a whole k2 loop of streams into one accumulator row:
//
//	for k2 in [k0, k1): y[j] = max(a[k2] + b[off[k2+1]+j], y[j])  for j in (k2, n)
//
// with 0 <= k0 and k1 < n (every stream is non-empty).
//
// y is a table row indexed by absolute column, a the row of left operands,
// b a table block and off its row offsets: cell (r, j) of the block is
// b[off[r]+j], whichever memory map laid it out. This is the R0 loop of the
// double max-plus (a = a row of the west triangle, b = the south triangle)
// and the R1 loop of finalize (a = a row of S², b = the triangle itself). The
// rows of b it reads must not overlap y[k0+1:n].
func Sweep(y, a, b []float32, off []int, k0, k1, n int) {
	if !useAVX2 {
		SweepGo(y, a, b, off, k0, k1, n)
		return
	}
	if k0 >= k1 {
		return
	}
	if k0 < 0 || k1 >= n || n > len(y) || k1 > len(a) || k1 >= len(off) {
		panic(fmt.Sprintf("maxplus: Sweep k2 range [%d,%d) to column %d outside y[:%d], a[:%d], off[:%d]",
			k0, k1, n, len(y), len(a), len(off)))
	}
	if bad := sweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, n, len(b)); bad >= 0 {
		panic(fmt.Sprintf("maxplus: Sweep row %d at offset %d to column %d outside b[:%d]", bad+1, off[bad+1], n, len(b)))
	}
}

// SumProduct performs the streaming update y[i] = y[i] + a * x[i] over the
// common prefix of x and y: Accumulate in the (+, ×) algebra over float64,
// the inner loop of the scaled partition fill. The product is rounded before
// the add — two operations, never a fused multiply-add — in the vector body
// and the Go loop alike. x must not overlap the part of y it updates.
func SumProduct(y, x []float64, a float64) {
	if useAVX2 {
		if n := min(len(y), len(x)); n > 0 {
			sumProductAVX2(&y[0], &x[0], n, a)
		}
		return
	}
	SumProductGo(y, x, a)
}

// MulScalarInto initializes dst[i] = a * x[i] over the common prefix of dst
// and x: AddScalarInto in the (+, ×) algebra over float64.
func MulScalarInto(dst, x []float64, a float64) {
	if useAVX2 {
		if n := min(len(dst), len(x)); n > 0 {
			mulScalarIntoAVX2(&dst[0], &x[0], n, a)
		}
		return
	}
	MulScalarIntoGo(dst, x, a)
}

// SumProductSweep is Sweep in the (+, ×) algebra over float64:
//
//	for k2 in [k0, k1): y[j] = y[j] + a[k2] * b[off[k2+1]+j]  for j in (k2, n)
//
// with the same arguments, the same requirements on them and the same checks.
func SumProductSweep(y, a, b []float64, off []int, k0, k1, n int) {
	if !useAVX2 {
		SumProductSweepGo(y, a, b, off, k0, k1, n)
		return
	}
	if k0 >= k1 {
		return
	}
	if k0 < 0 || k1 >= n || n > len(y) || k1 > len(a) || k1 >= len(off) {
		panic(fmt.Sprintf("maxplus: SumProductSweep k2 range [%d,%d) to column %d outside y[:%d], a[:%d], off[:%d]",
			k0, k1, n, len(y), len(a), len(off)))
	}
	if bad := sumProductSweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, n, len(b)); bad >= 0 {
		panic(fmt.Sprintf("maxplus: SumProductSweep row %d at offset %d to column %d outside b[:%d]", bad+1, off[bad+1], n, len(b)))
	}
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
