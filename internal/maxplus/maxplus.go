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
// the CPU and the operating system support them. Sweep is the paper's
// register tile (its §V future work): it holds a 128-byte block of Y in
// registers while a whole k2 loop of streams passes through it, so Y makes
// one trip through memory per block, not one per k2; with a left column bound
// it is also the step of finalize's blocked R2. BPPart's partition function
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
//	for k2 in [k0, k1): y[j] = max(a[k2] + b[off[k2+1]+j], y[j])  for j in [max(k2+1, from), n)
//
// with 0 <= k0, k1 < n and 0 <= from < n (every stream is non-empty).
//
// y is a table row indexed by absolute column, a the row of left operands,
// b a table block and off its row offsets: cell (r, j) of the block is
// b[off[r]+j], whichever memory map laid it out. This is the R0 loop of the
// double max-plus (a = a row of the west triangle, b = the south triangle),
// the R1 loop of finalize (a = a row of S², b = the triangle itself) and,
// with a left column bound, its R2 step (a = y itself, b = S², from = k1:
// the cells [k0, k1) of the row, final, pushed to the columns right of them).
// The rows of b it reads must not overlap the columns of y it writes,
// y[max(k0+1, from):n], and neither may a[k0:k1]; y is held in registers
// across the k2 loop, so a store to it is not seen by a later k2's loads.
//
// Both bodies run behind one set of checks: the arguments, ahead of the
// choice between them, then every row. The vector body looks at the rows
// itself, four a step, and does nothing if one lies outside b; the Go loops —
// the same bits — then run the streams before that row, and the panic names
// it.
func Sweep(y, a, b []float32, off []int, k0, k1, from, n int) {
	if k0 >= k1 {
		return
	}
	checkSweep("Sweep", len(y), len(a), len(off), k0, k1, from, n)
	if useAVX2 && len(b) > 0 && sweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b)) {
		return
	}
	end := rowsInside(len(b), off, k0, k1, from, n)
	SweepGo(y, a, b, off, k0, end, from, n)
	if end < k1 {
		panicSweepRow("Sweep", len(b), off, end, n)
	}
}

// checkSweep panics unless a sweep's k2 range and column bounds agree with
// each other and with the lengths of y, a and off.
func checkSweep(name string, ylen, alen, offlen, k0, k1, from, n int) {
	if k0 < 0 || k1 >= n || from < 0 || from >= n || n > ylen || k1 > alen || k1 >= offlen {
		panic(fmt.Sprintf("maxplus: %s k2 range [%d,%d) from column %d to column %d outside y[:%d], a[:%d], off[:%d]",
			name, k0, k1, from, n, ylen, alen, offlen))
	}
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
//	for k2 in [k0, k1): y[j] = y[j] + a[k2] * b[off[k2+1]+j]  for j in [max(k2+1, from), n)
//
// with the same arguments, the same requirements on them and the same checks.
func SumProductSweep(y, a, b []float64, off []int, k0, k1, from, n int) {
	if k0 >= k1 {
		return
	}
	checkSweep("SumProductSweep", len(y), len(a), len(off), k0, k1, from, n)
	if useAVX2 && len(b) > 0 && sumProductSweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b)) {
		return
	}
	end := rowsInside(len(b), off, k0, k1, from, n)
	SumProductSweepGo(y, a, b, off, k0, end, from, n)
	if end < k1 {
		panicSweepRow("SumProductSweep", len(b), off, end, n)
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
