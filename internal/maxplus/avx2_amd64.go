//go:build !purego

package maxplus

// The AVX2 kernel bodies (avx2_amd64.s). Each takes raw pointers and the
// counts the exported wrapper has already bounds-checked, and needs n > 0
// (the sweeps: 0 <= k0 < k1 < n and 0 <= from < n; they check the rows of b
// against blen themselves and return false, y untouched, if one lies outside).

//go:noescape
func accumulateAVX2(y, x *float32, n int, a float32)

//go:noescape
func addScalarIntoAVX2(dst, x *float32, n int, a float32)

//go:noescape
func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen int) (ok bool)

//go:noescape
func sumProductAVX2(y, x *float64, n int, a float64)

//go:noescape
func mulScalarIntoAVX2(dst, x *float64, n int, a float64)

//go:noescape
func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen int) (ok bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAVX2 is decided once, before main: the CPU implements AVX2 and the
// operating system saves the YMM registers across context switches.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX — XGETBV is enabled
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymmSave = 0b110   // XCR0 — the OS saves XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&ymmSave != ymmSave {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
