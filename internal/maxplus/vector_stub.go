//go:build !amd64 || purego

package maxplus

// No vector bodies in this build: the exported kernels always take their
// portable path, and the compiler drops the calls below as dead code.
const process = isaGo

func accumulateAVX2(y, x *float32, n int, a float32)      { panic("maxplus: no vector build") }
func addScalarIntoAVX2(dst, x *float32, n int, a float32) { panic("maxplus: no vector build") }
func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen, c0 int, x1 *float32, a1 float32, x2 *float32, a2 float32) bool {
	panic("maxplus: no vector build")
}
func sweepAVX512(y, a, b *float32, off *int, k0, k1, from, n, blen, c0 int, x1 *float32, a1 float32, x2 *float32, a2 float32) bool {
	panic("maxplus: no vector build")
}

func accumEachAVX2(y, x, w *float32, n int)               { panic("maxplus: no vector build") }
func accumEachAVX512(y, x, w *float32, n int)             { panic("maxplus: no vector build") }
func sumProductAVX2(y, x *float64, n int, a float64)      { panic("maxplus: no vector build") }
func sumProductEachAVX2(y, x, w *float64, n int)          { panic("maxplus: no vector build") }
func sumProductEachAVX512(y, x, w *float64, n int)        { panic("maxplus: no vector build") }
func mulScalarIntoAVX2(dst, x *float64, n int, a float64) { panic("maxplus: no vector build") }
func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen, c0 int, x1 *float64, a1 float64, x2 *float64, a2 float64) bool {
	panic("maxplus: no vector build")
}
func sumProductSweepAVX512(y, a, b *float64, off *int, k0, k1, from, n, blen, c0 int, x1 *float64, a1 float64, x2 *float64, a2 float64) bool {
	panic("maxplus: no vector build")
}

func accumulateAVX512(y, x *float32, n int, a float32)      { panic("maxplus: no vector build") }
func addScalarIntoAVX512(dst, x *float32, n int, a float32) { panic("maxplus: no vector build") }
func sumProductAVX512(y, x *float64, n int, a float64)      { panic("maxplus: no vector build") }
func mulScalarIntoAVX512(dst, x *float64, n int, a float64) { panic("maxplus: no vector build") }

func productAVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, m, w, k, diag int, x1 *float32, a1 float32, x2 *float32, a2 float32, live *uint64, lstride int) {
	panic("maxplus: no vector build")
}
func productAVX512(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, m, w, k, diag int, x1 *float32, a1 float32, x2 *float32, a2 float32, live *uint64, lstride int) {
	panic("maxplus: no vector build")
}
func sumProductProductAVX2(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, m, w, k, diag int, x1 *float64, a1 float64, x2 *float64, a2 float64, live *uint64, lstride int) {
	panic("maxplus: no vector build")
}
func sumProductProductAVX512(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, m, w, k, diag int, x1 *float64, a1 float64, x2 *float64, a2 float64, live *uint64, lstride int) {
	panic("maxplus: no vector build")
}
func r2AVX2(c, star *float32, lds, k0, n int, live *uint64)   { panic("maxplus: no vector build") }
func r2AVX512(c, star *float32, lds, k0, n int, live *uint64) { panic("maxplus: no vector build") }
func liveAVX2(y, pre *float32, lo, hi int, live *uint64)      { panic("maxplus: no vector build") }
func liveAVX512(y, pre *float32, lo, hi int, live *uint64)    { panic("maxplus: no vector build") }
