package maxplus

// The portable bodies of the streaming kernels: the loops this package had
// before it had assembly, unchanged. They are what runs on every
// architecture but amd64, under the `purego` build tag and on an amd64 CPU
// without AVX2, and they are the oracle the vector bodies are tested
// against bit for bit.

// AccumulateGo is Accumulate's portable body.
func AccumulateGo(y, x []float32, a float32) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	y = y[:n]
	for i := range y {
		if v := a + x[i]; v > y[i] {
			y[i] = v
		}
	}
}

// AccumEachGo is AccumEach's portable body: y[k] = max(x[k] + w[k], y[k])
// for every k of x, the pairing term of a row (semiring.Kernels.AccumEach).
func AccumEachGo(y, x, w []float32) {
	y, w = y[:len(x)], w[:len(x)]
	for k, v := range x {
		if v += w[k]; v > y[k] {
			y[k] = v
		}
	}
}

// Accumulate8Go is AccumulateGo with an 8-way unrolled main loop: it keeps
// the loop free of bounds checks and gives the hardware independent max
// chains to retire in parallel.
func Accumulate8Go(y, x []float32, a float32) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	y = y[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		x8 := x[i : i+8 : i+8]
		y8 := y[i : i+8 : i+8]
		v0 := a + x8[0]
		v1 := a + x8[1]
		v2 := a + x8[2]
		v3 := a + x8[3]
		v4 := a + x8[4]
		v5 := a + x8[5]
		v6 := a + x8[6]
		v7 := a + x8[7]
		if v0 > y8[0] {
			y8[0] = v0
		}
		if v1 > y8[1] {
			y8[1] = v1
		}
		if v2 > y8[2] {
			y8[2] = v2
		}
		if v3 > y8[3] {
			y8[3] = v3
		}
		if v4 > y8[4] {
			y8[4] = v4
		}
		if v5 > y8[5] {
			y8[5] = v5
		}
		if v6 > y8[6] {
			y8[6] = v6
		}
		if v7 > y8[7] {
			y8[7] = v7
		}
	}
	for ; i < n; i++ {
		if v := a + x[i]; v > y[i] {
			y[i] = v
		}
	}
}

// AddScalarIntoGo is AddScalarInto's portable body.
func AddScalarIntoGo(dst, x []float32, a float32) {
	n := len(dst)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	dst = dst[:n]
	for i := range dst {
		dst[i] = a + x[i]
	}
}

// SweepGo is Sweep's portable body, and the Sweep of semiring's Go max-plus
// bundle: one AccumulateGo stream per k2.
func SweepGo(y, a, b []float32, off []int, k0, k1, from, n int) {
	for k2 := k0; k2 < k1; k2++ {
		o, lo := off[k2+1], max(k2+1, from)
		AccumulateGo(y[lo:n], b[o+lo:o+n], a[k2])
	}
}

// The float64 sum-product loops. The product is written float64(a * x[i]): an
// explicit conversion rounds, so no build — arm64, GOAMD64=v3 — may fuse it
// with the add (Go spec, "Floating-point operators"). ⊗ then ⊕, two
// roundings, is the numeric contract the vector bodies implement with VMULPD
// and VADDPD.

// SumProductGo is SumProduct's portable body.
func SumProductGo(y, x []float64, a float64) {
	n := min(len(y), len(x))
	x = x[:n]
	y = y[:n]
	for i := range y {
		y[i] += float64(a * x[i])
	}
}

// MulScalarIntoGo is MulScalarInto's portable body.
func MulScalarIntoGo(dst, x []float64, a float64) {
	n := min(len(dst), len(x))
	x = x[:n]
	dst = dst[:n]
	for i := range dst {
		dst[i] = a * x[i]
	}
}

// SumProductSweepGo is SumProductSweep's portable body: one SumProductGo
// stream per k2.
func SumProductSweepGo(y, a, b []float64, off []int, k0, k1, from, n int) {
	for k2 := k0; k2 < k1; k2++ {
		o, lo := off[k2+1], max(k2+1, from)
		SumProductGo(y[lo:n], b[o+lo:o+n], a[k2])
	}
}
