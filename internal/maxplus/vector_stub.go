//go:build !amd64 || purego

package maxplus

// No vector bodies in this build: the exported kernels always take their
// portable path, and the compiler drops the calls below as dead code.
const process = isaGo

func accumulateAVX2(y, x *float32, n int, a float32)      { panic("maxplus: no vector build") }
func addScalarIntoAVX2(dst, x *float32, n int, a float32) { panic("maxplus: no vector build") }
func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen int) bool {
	panic("maxplus: no vector build")
}
func sweepAVX512(y, a, b *float32, off *int, k0, k1, from, n, blen int) bool {
	panic("maxplus: no vector build")
}

func accumEachAVX2(y, x, w *float32, n int)               { panic("maxplus: no vector build") }
func accumEachAVX512(y, x, w *float32, n int)             { panic("maxplus: no vector build") }
func sumProductAVX2(y, x *float64, n int, a float64)      { panic("maxplus: no vector build") }
func mulScalarIntoAVX2(dst, x *float64, n int, a float64) { panic("maxplus: no vector build") }
func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen int) bool {
	panic("maxplus: no vector build")
}
func sumProductSweepAVX512(y, a, b *float64, off *int, k0, k1, from, n, blen int) bool {
	panic("maxplus: no vector build")
}

func accumulateAVX512(y, x *float32, n int, a float32)      { panic("maxplus: no vector build") }
func addScalarIntoAVX512(dst, x *float32, n int, a float32) { panic("maxplus: no vector build") }
func sumProductAVX512(y, x *float64, n int, a float64)      { panic("maxplus: no vector build") }
func mulScalarIntoAVX512(dst, x *float64, n int, a float64) { panic("maxplus: no vector build") }
