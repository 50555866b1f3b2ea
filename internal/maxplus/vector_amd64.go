//go:build !purego

package maxplus

// The vector kernel bodies: AVX2 (avx2_amd64.s) and AVX-512
// (avx512_amd64.s). Each takes raw pointers and the counts the exported
// wrapper has already bounds-checked, and needs n > 0 (the sweeps: 0 <= k0 <
// k1 < n and 0 <= from < n; they check the rows of b against blen themselves
// and return false, y untouched, if one lies outside).

//go:noescape
func accumulateAVX2(y, x *float32, n int, a float32)

//go:noescape
func addScalarIntoAVX2(dst, x *float32, n int, a float32)

//go:noescape
func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen int) (ok bool)

//go:noescape
func accumEachAVX2(y, x, w *float32, n int)

//go:noescape
func sumProductAVX2(y, x *float64, n int, a float64)

//go:noescape
func mulScalarIntoAVX2(dst, x *float64, n int, a float64)

//go:noescape
func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen int) (ok bool)

//go:noescape
func accumulateAVX512(y, x *float32, n int, a float32)

//go:noescape
func addScalarIntoAVX512(dst, x *float32, n int, a float32)

//go:noescape
func accumEachAVX512(y, x, w *float32, n int)

//go:noescape
func sumProductAVX512(y, x *float64, n int, a float64)

//go:noescape
func mulScalarIntoAVX512(dst, x *float64, n int, a float64)

//go:noescape
func sweepAVX512(y, a, b *float32, off *int, k0, k1, from, n, blen int) (ok bool)

//go:noescape
func sumProductSweepAVX512(y, a, b *float64, off *int, k0, k1, from, n, blen int) (ok bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// process is decided once, before main: the widest body the CPU implements
// and the operating system saves the registers of across context switches.
var process = detect()

func detect() isa {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX — XGETBV is enabled
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		avx512f = 1 << 16 // CPUID.7.0:EBX
		ymmSave = 0b110   // XCR0 — the OS saves XMM and YMM state
		zmmSave = 0xe6    // XCR0 — ... and the opmask and all 32 ZMM registers
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return isaGo
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return isaGo
	}
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	switch {
	case xcr0&ymmSave != ymmSave || b&avx2 == 0:
		return isaGo
	case xcr0&zmmSave == zmmSave && b&avx512f != 0:
		return isaAVX512
	}
	return isaAVX2
}
