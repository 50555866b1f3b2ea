//go:build !amd64 || purego

package maxplus

// No vector bodies in this build: the exported kernels always take their
// portable path, and the compiler drops the calls below as dead code.
const useAVX2 = false

func accumulateAVX2(y, x *float32, n int, a float32)      { panic("maxplus: no AVX2 build") }
func addScalarIntoAVX2(dst, x *float32, n int, a float32) { panic("maxplus: no AVX2 build") }
func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen int) bool {
	panic("maxplus: no AVX2 build")
}

func sumProductAVX2(y, x *float64, n int, a float64)      { panic("maxplus: no AVX2 build") }
func mulScalarIntoAVX2(dst, x *float64, n int, a float64) { panic("maxplus: no AVX2 build") }
func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen int) bool {
	panic("maxplus: no AVX2 build")
}
