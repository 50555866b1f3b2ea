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
// Accumulate8, AccumEach, AddScalarInto and the fused k2 loop Sweep — have hand-written
// vector bodies: AVX-512 (avx512_amd64.s) and AVX2 (avx2_amd64.s), the widest
// the CPU and the operating system support chosen once at start-up, with no
// option to pick another. Sweep is the paper's register tile (its §V future
// work): it holds a block of four vectors of Y in registers — 256 bytes on
// AVX-512, 128 on AVX2 — while a whole k2 loop of streams passes through it,
// so Y makes one trip through memory per block, not one per k2; with a left
// column bound it is also the step of finalize's blocked R2, and with a
// scratch copy of the row as a, the substrate's closure row. BPPart's
// partition function is the same stream in the (+, ×) algebra over float64,
// Y[j] = Y[j] + a·X[j]: a Body's SumProduct, SumProductSweep and
// MulScalarInto are those kernels, on the same assembly skeletons at half
// the lanes. The Go
// loops they all replace (portable.go) are every other build: other
// architectures, the `purego` tag, an amd64 CPU without AVX2. Every body
// produces the same bits; Impl names the one in use, Impls every one the CPU
// can run, and BodyOf hands any of them to package semiring's bundles — the
// fills' only route to Sweep and the float64 kernels — and to the tests.
//
// The gather kernel (DotMaxPlusStride) implements the *rejected* schedules
// that keep k2 innermost; it exists so the benchmarks can demonstrate why
// those schedules lose.
package maxplus

import "fmt"

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

// Body is one body's streaming kernels, each behind the same checks as the
// exported kernel of its name, which runs BodyOf(Impl()). The bodies Impl
// did not choose are there for the differential tests and the parity
// fuzzers, which hold every body the CPU can run to the Go loops.
type Body struct {
	Impl            string
	Accumulate      func(y, x []float32, a float32)
	AccumEach       func(y, x, w []float32)
	AddScalarInto   func(dst, x []float32, a float32)
	Sweep           func(y, a, b []float32, off []int, k0, k1, from, n int)
	SumProduct      func(y, x []float64, a float64)
	MulScalarInto   func(dst, x []float64, a float64)
	SumProductSweep func(y, a, b []float64, off []int, k0, k1, from, n int)
}

// BodyOf returns the kernels of the named body. It panics unless impl is one
// of Impls.
func BodyOf(impl string) Body {
	for _, b := range bodies[:process+1] {
		if b.Impl == impl {
			return b
		}
	}
	panic(fmt.Sprintf("maxplus: no %q body in this process (it runs %v)", impl, Impls()))
}

// bodies is indexed by isa.
var bodies = [...]Body{
	isaGo: {
		Impl:          "go",
		Accumulate:    AccumulateGo,
		AccumEach:     AccumEachGo,
		AddScalarInto: AddScalarIntoGo,
		Sweep: func(y, a, b []float32, off []int, k0, k1, from, n int) {
			sweep(isaGo, y, a, b, off, k0, k1, from, n)
		},
		SumProduct:    SumProductGo,
		MulScalarInto: MulScalarIntoGo,
		SumProductSweep: func(y, a, b []float64, off []int, k0, k1, from, n int) {
			sumProductSweep(isaGo, y, a, b, off, k0, k1, from, n)
		},
	},
	isaAVX2: {
		Impl:          "avx2",
		Accumulate:    accumulate2,
		AccumEach:     vectorEach(accumEachAVX2),
		AddScalarInto: addScalarInto2,
		Sweep: func(y, a, b []float32, off []int, k0, k1, from, n int) {
			sweep(isaAVX2, y, a, b, off, k0, k1, from, n)
		},
		SumProduct:    sumProduct2,
		MulScalarInto: mulScalarInto2,
		SumProductSweep: func(y, a, b []float64, off []int, k0, k1, from, n int) {
			sumProductSweep(isaAVX2, y, a, b, off, k0, k1, from, n)
		},
	},
	isaAVX512: {
		Impl:          "avx512",
		Accumulate:    accumulate512,
		AccumEach:     vectorEach(accumEachAVX512),
		AddScalarInto: addScalarInto512,
		Sweep: func(y, a, b []float32, off []int, k0, k1, from, n int) {
			sweep(isaAVX512, y, a, b, off, k0, k1, from, n)
		},
		SumProduct:    sumProduct512,
		MulScalarInto: mulScalarInto512,
		SumProductSweep: func(y, a, b []float64, off []int, k0, k1, from, n int) {
			sumProductSweep(isaAVX512, y, a, b, off, k0, k1, from, n)
		},
	},
}

// Accumulate performs the streaming update y[i] = max(a + x[i], y[i]) over
// the common prefix of x and y. This is simultaneously Algorithm 3's
// micro-benchmark kernel and the inner loop of the double max-plus. x must
// not overlap the part of y it updates.
func Accumulate(y, x []float32, a float32) { bodies[process].Accumulate(y, x, a) }

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
// y[k] = max(x[k] + w[k], y[k]) over x, behind AccumEachGo's checks.
func vectorEach(body func(y, x, w *float32, n int)) func(y, x, w []float32) {
	return func(y, x, w []float32) {
		if n := len(x); n > 0 {
			y, w = y[:n], w[:n]
			body(&y[0], &x[0], &w[0], n)
		}
	}
}

// Accumulate8 is Accumulate with an 8-way unrolled main loop where the
// portable bodies run (the unroll factor matches one AVX2 register of
// float32); with the vector bodies active it is Accumulate.
func Accumulate8(y, x []float32, a float32) {
	if process != isaGo {
		Accumulate(y, x, a)
		return
	}
	Accumulate8Go(y, x, a)
}

// AddScalarInto initializes dst[i] = a + x[i] over the common prefix of dst
// and x: the row-initialization kernel (G = S¹(i1,j1) + S² row) that seeds
// the H accumulator before the R0/R3/R4 streams run.
func AddScalarInto(dst, x []float32, a float32) { bodies[process].AddScalarInto(dst, x, a) }

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

// sweep is every body's Sweep (Body.Sweep; semiring.Kernels.Sweep binds it):
// a whole k2 loop of streams into one accumulator row,
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
// Every body runs behind one set of checks: the arguments, ahead of the
// choice between them, then every row. A vector body looks at the rows
// itself, several a step, and does nothing if one lies outside b; the Go
// loops — the same bits — then run the streams before that row, and the
// panic names it.
func sweep(v isa, y, a, b []float32, off []int, k0, k1, from, n int) {
	if k0 >= k1 {
		return
	}
	checkSweep("Sweep", len(y), len(a), len(off), k0, k1, from, n)
	if len(b) > 0 {
		switch {
		case v == isaAVX512 && sweepAVX512(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b)):
			return
		case v == isaAVX2 && sweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b)):
			return
		}
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

// The vector bodies of Body.SumProduct: the streaming update
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

// The vector bodies of Body.MulScalarInto: dst[i] = a * x[i] over the
// common prefix of dst and x, AddScalarInto in the (+, ×) algebra over
// float64.
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

// sumProductSweep is sweep in the (+, ×) algebra over float64 (Body.SumProductSweep):
//
//	for k2 in [k0, k1): y[j] = y[j] + a[k2] * b[off[k2+1]+j]  for j in [max(k2+1, from), n)
//
// with the same arguments, the same requirements on them and the same checks.
func sumProductSweep(v isa, y, a, b []float64, off []int, k0, k1, from, n int) {
	if k0 >= k1 {
		return
	}
	checkSweep("SumProductSweep", len(y), len(a), len(off), k0, k1, from, n)
	if len(b) > 0 {
		switch {
		case v == isaAVX512 && sumProductSweepAVX512(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b)):
			return
		case v == isaAVX2 && sumProductSweepAVX2(&y[0], &a[0], &b[0], &off[0], k0, k1, from, n, len(b)):
			return
		}
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
