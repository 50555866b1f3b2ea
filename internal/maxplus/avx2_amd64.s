//go:build !purego

#include "textflag.h"

// AVX2 bodies of the streaming kernels, y[j] = y[j] ⊕ (a ⊗ x[j]), over the
// two algebras the fill serves:
//
//	float32 max-plus     y[j] = max(a + x[j], y[j])   8 lanes, VADDPS then VMAXPS
//	float64 sum-product  y[j] = y[j] + a * x[j]       4 lanes, VMULPD then VADDPD
//
// Both run on one skeleton (GRID, FIRST, MASKED, WHOLE below), expanded once
// per element type with the lane geometry and the ⊗/⊕ instruction pair bound
// by the #define block in front of each set of functions.
//
// Bit-identity. A float32 add and a float64 multiply or add are the same IEEE
// operations in an SSE scalar and an AVX lane, so tables are bit-identical to
// the Go loops. The sum-product is two instructions and two roundings, never
// VFMADD: the Go loops round the product too (portable.go writes it as
// float64(a * x[i]), which the Go spec forbids fusing on any build).
//
// Operand order. VMAXPS returns its SECOND source when either input is a
// NaN and when both are zeros of either sign. Every VMAXPS below therefore
// has the candidate a+x as first source and the running y as second, which
// makes it exactly Go's `if v > y[j] { y[j] = v }`: y changes only when the
// comparison is true, a NaN on either side leaves y as it was, and max(+0,
// -0) keeps y's zero. (In Go assembler syntax the second source is written
// first: `VMAXPS y, v, dst`.) VADDPD is commutative but for which of two
// different NaN payloads survives, and a fill holds none.
//
// NaN cannot arise in a max-plus fill anyway: it would take (+Inf) + (-Inf),
// and the forbidden sentinel semiring.NegInf is the finite -1e30, not -Inf —
// sums of a few of them stay finite, and nothing in a max-plus table is +Inf.
// A scaled sum-product fill that overflows to Inf or NaN trips its range
// guard and is discarded.
//
// The grid. Sweep and Accumulate do not start their vector loop at the first
// element of the stream. They walk y in 32-byte chunks aligned to a fixed
// grid (the 32-byte-aligned addresses of memory), with a partial first and
// last chunk handled under a lane mask. Consecutive streams over one row —
// k2, k2+1, ... of a sweep, or the R2 calls of finalize — start one element
// further right each time; on the grid they load exactly the 32-byte chunks
// the previous stream stored, so the loads are served by store forwarding.
// Started at k2+1 instead, every load would straddle two earlier stores,
// which cannot be forwarded, and the loop stalls on the y loads until the
// stores reach the cache. (The 8×64 partition fill runs in ×0.78 of its
// scalar time on float64 bodies started at the first element, in ×0.55 on
// the grid: docs/PERFORMANCE.md, "Vector kernels".)
//
// Lanes outside the stream may be loaded (an aligned chunk that holds one
// element of the stream lies in its page) but are never stored, not even with
// the value just loaded: in the packed and band maps the cells on either
// side of y[k2+1:n] belong to other rows, which in the row-parallel schedules
// another goroutine is writing, and putting an old value back would lose its
// update. VMASKMOVPS/PD neither writes nor faults on a masked-off lane.

// lanemask: 32 zero bytes, 32 set bytes, 32 zero bytes — 8 zero, set and zero
// float32 lanes, or 4 of each float64 lanes. The chunk of lanes that starts
// s lanes before the set run is set from lane s up (the mask of a first
// chunk); the one that starts r lanes before its end is set below lane r
// (the mask of a last chunk).
DATA lanemask<>+0(SB)/8, $0
DATA lanemask<>+8(SB)/8, $0
DATA lanemask<>+16(SB)/8, $0
DATA lanemask<>+24(SB)/8, $0
DATA lanemask<>+32(SB)/8, $-1
DATA lanemask<>+40(SB)/8, $-1
DATA lanemask<>+48(SB)/8, $-1
DATA lanemask<>+56(SB)/8, $-1
DATA lanemask<>+64(SB)/8, $0
DATA lanemask<>+72(SB)/8, $0
DATA lanemask<>+80(SB)/8, $0
DATA lanemask<>+88(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $96

// The element type of the skeleton: ESIZE bytes an element (1<<ESHIFT), LANES
// a chunk (1<<LSHIFT), masked moves, whole loads and stores, ⊗ and ⊕.
#define ESIZE    4
#define ESHIFT   2
#define LANES    8
#define LSHIFT   3
#define VMASKMOV VMASKMOVPS
#define VLOADU   VMOVUPS
#define VSTOREA  VMOVAPS
#define VTIMES   VADDPS
#define VPLUS    VMAXPS

// GRID splits the y pointer in DI into the grid base (left in DI: lane g of
// the grid is at byte offset ESIZE*g) and the lane y[0] occupies (R8), then from
// the stream's end index in R10 derives the byte offset of the last, partial
// chunk (R10), the number of lanes in it (R11, 0 when the stream ends on the
// grid) and its mask (Y7). R12 is left pointing at lanemask. Clobbers AX.
#define GRID \
	MOVQ    DI, R8; \
	ANDQ    $31, R8; \
	SUBQ    R8, DI; \
	SHRQ    $ESHIFT, R8; \
	ADDQ    R8, R10; \
	MOVQ    R10, R11; \
	ANDQ    $(LANES-1), R11; \
	SHRQ    $LSHIFT, R10; \
	SHLQ    $5, R10; \
	LEAQ    lanemask<>(SB), R12; \
	MOVQ    R11, AX; \
	NEGQ    AX; \
	VMOVDQU 64(R12)(AX*ESIZE), Y7

// FIRST turns the grid lane in AX at which a stream starts into the byte
// offset of its first chunk (AX) and minus the lane it starts at in that
// chunk (BX), and sets ZF when the stream starts on the grid; otherwise Y6
// is the first chunk's mask.
#define FIRST \
	MOVQ    AX, BX; \
	SHRQ    $LSHIFT, AX; \
	SHLQ    $5, AX; \
	ANDQ    $(LANES-1), BX; \
	NEGQ    BX; \
	VMOVDQU 32(R12)(BX*ESIZE), Y6; \
	TESTQ   BX, BX

// MASKED updates the chunk at byte offset AX under lane mask m.
#define MASKED(m) \
	VMASKMOV (SI)(AX*1), m, Y1; \
	VMASKMOV (DI)(AX*1), m, Y2; \
	VTIMES   Y0, Y1, Y1; \
	VPLUS    Y2, Y1, Y1; \
	VMASKMOV Y1, m, (DI)(AX*1)

// WHOLE updates the whole chunks from byte offset AX up to the last chunk at
// R10, four at a time and then singly, where DI and SI are the grid bases of
// y and x and Y0 holds a in every lane; it leaves AX at R10. Clobbers BX and
// Y1-Y4. Its labels make it expand once per function.
#define WHOLE \
whole4: \
	LEAQ    128(AX), BX; \
	CMPQ    BX, R10; \
	JA      whole1; \
	VLOADU  (SI)(AX*1), Y1; \
	VLOADU  32(SI)(AX*1), Y2; \
	VLOADU  64(SI)(AX*1), Y3; \
	VLOADU  96(SI)(AX*1), Y4; \
	VTIMES  Y0, Y1, Y1; \
	VTIMES  Y0, Y2, Y2; \
	VTIMES  Y0, Y3, Y3; \
	VTIMES  Y0, Y4, Y4; \
	VPLUS   (DI)(AX*1), Y1, Y1; \
	VPLUS   32(DI)(AX*1), Y2, Y2; \
	VPLUS   64(DI)(AX*1), Y3, Y3; \
	VPLUS   96(DI)(AX*1), Y4, Y4; \
	VSTOREA Y1, (DI)(AX*1); \
	VSTOREA Y2, 32(DI)(AX*1); \
	VSTOREA Y3, 64(DI)(AX*1); \
	VSTOREA Y4, 96(DI)(AX*1); \
	MOVQ    BX, AX; \
	JMP     whole4; \
whole1: \
	CMPQ    AX, R10; \
	JAE     wholedone; \
	VLOADU  (SI)(AX*1), Y1; \
	VTIMES  Y0, Y1, Y1; \
	VPLUS   (DI)(AX*1), Y1, Y1; \
	VSTOREA Y1, (DI)(AX*1); \
	ADDQ    $32, AX; \
	JMP     whole1; \
wholedone:

// func accumulateAVX2(y, x *float32, n int, a float32)
// y[i] = max(a + x[i], y[i]) for i in [0, n); n > 0.
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-28
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), R10
	VBROADCASTSS a+24(FP), Y0
	GRID
	LEAQ         (R8*4), AX
	SUBQ         AX, SI      // x's grid base: x[0] in the lane of y[0]
	MOVQ         R8, AX      // the stream starts at y[0]
	FIRST
	JZ           whole4
	CMPQ         AX, R10
	JNE          first
	VPAND        Y7, Y6, Y6  // the stream starts and ends inside one chunk
	MASKED(Y6)
	JMP          done

first:
	MASKED(Y6)
	ADDQ         $32, AX
	WHOLE
	TESTQ        R11, R11
	JZ           done
	MASKED(Y7)

done:
	VZEROUPPER
	RET

// func sweepAVX2(y, a, b *float32, off *int, k0, k1, n, blen int) (bad int)
// For k2 in [k0, k1): y[j] = max(a[k2] + b[off[k2+1]+j], y[j]) for j in
// [k2+1, n). Requires 0 <= k0 < k1 < n. Returns -1, or the first k2 whose
// row b[off[k2+1]+k2+1 : off[k2+1]+n] does not lie inside b[:blen], having
// run the streams before it.
//
// The two partial chunks of a stream live in registers across k2. The last
// chunk is the same for every k2: Y8 holds it from the first stream to the
// masked store on the way out. That store writes the lanes in Y9, those of
// the widest stream (k0's), and so no lane before y[k0+1] even when stream
// k0 starts inside the last chunk: such a lane would get back the value
// loaded on entry, undoing whatever its owner has stored since. The first
// chunk is shared by up to seven consecutive k2: Y5 holds it, reloaded when
// the stream's start moves into a new chunk (which the previous k2 stored
// whole) and written back under the mask after every update. Neither is ever
// loaded back from a masked store, which cannot be forwarded.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-72
	MOVQ    y+0(FP), DI
	MOVQ    a+8(FP), R13
	MOVQ    k0+32(FP), CX
	MOVQ    n+48(FP), R10
	GRID
	TESTQ   R11, R11
	JZ      nolast
	VMOVAPS (DI)(R10*1), Y8       // the last chunk: it holds y[n-1]
	VMOVDQA Y7, Y9                // and the lanes of it the streams will write

nolast:
	LEAQ    1(CX)(R8*1), AX
	FIRST
	VMOVAPS (DI)(AX*1), Y5        // stream k0's first chunk: it holds y[k0+1]
	CMPQ    AX, R10
	JNE     nextk
	VPAND   Y7, Y6, Y9            // stream k0 starts inside the last chunk: not the lanes before y[k0+1]

nextk:
	MOVQ         off+24(FP), DX
	MOVQ         8(DX)(CX*8), DX      // off[k2+1]
	LEAQ         1(DX)(CX*1), AX      // index in b of the row's first cell
	TESTQ        AX, AX
	JS           out
	MOVQ         n+48(FP), AX
	ADDQ         DX, AX               // and one past its last
	CMPQ         AX, blen+56(FP)
	JG           out
	VBROADCASTSS (R13)(CX*4), Y0
	SUBQ         R8, DX
	MOVQ         b+16(FP), SI
	LEAQ         (SI)(DX*4), SI       // x's grid base: b[off[k2+1]+j] in the lane of y[j]
	LEAQ         1(CX)(R8*1), AX      // the stream starts at y[k2+1]
	FIRST
	JZ           whole4
	CMPQ         AX, R10
	JEQ          only
	CMPQ         BX, $-1
	JNE          first
	VMOVAPS      (DI)(AX*1), Y5       // a new first chunk, stored whole by stream k2-1

first:
	VMASKMOVPS   (SI)(AX*1), Y6, Y1
	VADDPS       Y0, Y1, Y1
	VMAXPS       Y5, Y1, Y1
	VBLENDVPS    Y6, Y1, Y5, Y5
	VMASKMOVPS   Y5, Y6, (DI)(AX*1)
	ADDQ         $32, AX
	WHOLE
	TESTQ        R11, R11
	JZ           donek
	VMOVDQA      Y7, Y6
	JMP          last

only:
	VPAND        Y7, Y6, Y6           // the stream starts inside the last chunk

last:
	VMASKMOVPS   (SI)(R10*1), Y6, Y1
	VADDPS       Y0, Y1, Y1
	VMAXPS       Y8, Y1, Y1
	VBLENDVPS    Y6, Y1, Y8, Y8

donek:
	INCQ         CX
	CMPQ         CX, k1+40(FP)
	JLT          nextk
	MOVQ         $-1, CX

out:
	TESTQ        R11, R11
	JZ           ret
	VMASKMOVPS   Y8, Y9, (DI)(R10*1)

ret:
	MOVQ         CX, bad+64(FP)
	VZEROUPPER
	RET

// The kernel below runs once per row; its y is not re-read by a following
// call, so it starts at the first element and masks only the last chunk.

// func addScalarIntoAVX2(dst, x *float32, n int, a float32)
// dst[i] = a + x[i] for i in [0, n); n > 0.
TEXT ·addScalarIntoAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	XORQ         AX, AX

addfull:
	CMPQ    CX, $8
	JLT     addtail
	VADDPS  (SI)(AX*1), Y0, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     addfull

addtail:
	TESTQ      CX, CX
	JZ         adddone
	LEAQ       lanemask<>(SB), R12
	NEGQ       CX
	VMOVDQU    64(R12)(CX*4), Y7
	VMASKMOVPS (SI)(AX*1), Y7, Y1
	VADDPS     Y0, Y1, Y1
	VMASKMOVPS Y1, Y7, (DI)(AX*1)

adddone:
	VZEROUPPER
	RET

// The float64 sum-product expansion of the skeleton: 4 lanes, VMULPD then
// VADDPD. sumProductAVX2, sumProductSweepAVX2 and mulScalarIntoAVX2 are
// accumulateAVX2, sweepAVX2 and addScalarIntoAVX2 again, instruction for
// instruction, with 8-byte elements in their address arithmetic; the comments
// there apply here.
#undef ESIZE
#undef ESHIFT
#undef LANES
#undef LSHIFT
#undef VMASKMOV
#undef VLOADU
#undef VSTOREA
#undef VTIMES
#undef VPLUS
#define ESIZE    8
#define ESHIFT   3
#define LANES    4
#define LSHIFT   2
#define VMASKMOV VMASKMOVPD
#define VLOADU   VMOVUPD
#define VSTOREA  VMOVAPD
#define VTIMES   VMULPD
#define VPLUS    VADDPD

// func sumProductAVX2(y, x *float64, n int, a float64)
// y[i] = y[i] + a * x[i] for i in [0, n); n > 0.
TEXT ·sumProductAVX2(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), R10
	VBROADCASTSD a+24(FP), Y0
	GRID
	LEAQ         (R8*8), AX
	SUBQ         AX, SI      // x's grid base: x[0] in the lane of y[0]
	MOVQ         R8, AX      // the stream starts at y[0]
	FIRST
	JZ           whole4
	CMPQ         AX, R10
	JNE          first
	VPAND        Y7, Y6, Y6  // the stream starts and ends inside one chunk
	MASKED(Y6)
	JMP          done

first:
	MASKED(Y6)
	ADDQ         $32, AX
	WHOLE
	TESTQ        R11, R11
	JZ           done
	MASKED(Y7)

done:
	VZEROUPPER
	RET

// func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, n, blen int) (bad int)
// For k2 in [k0, k1): y[j] = y[j] + a[k2] * b[off[k2+1]+j] for j in
// [k2+1, n). Requires 0 <= k0 < k1 < n. Returns -1, or the first k2 whose
// row b[off[k2+1]+k2+1 : off[k2+1]+n] does not lie inside b[:blen], having
// run the streams before it.
//
// Y8 and Y9 are the last chunk and the lanes of it to store, Y5 the first
// chunk, shared here by up to three consecutive k2 (see sweepAVX2).
TEXT ·sumProductSweepAVX2(SB), NOSPLIT, $0-72
	MOVQ    y+0(FP), DI
	MOVQ    a+8(FP), R13
	MOVQ    k0+32(FP), CX
	MOVQ    n+48(FP), R10
	GRID
	TESTQ   R11, R11
	JZ      nolast
	VMOVAPD (DI)(R10*1), Y8       // the last chunk: it holds y[n-1]
	VMOVDQA Y7, Y9                // and the lanes of it the streams will write

nolast:
	LEAQ    1(CX)(R8*1), AX
	FIRST
	VMOVAPD (DI)(AX*1), Y5        // stream k0's first chunk: it holds y[k0+1]
	CMPQ    AX, R10
	JNE     nextk
	VPAND   Y7, Y6, Y9            // stream k0 starts inside the last chunk: not the lanes before y[k0+1]

nextk:
	MOVQ         off+24(FP), DX
	MOVQ         8(DX)(CX*8), DX      // off[k2+1]
	LEAQ         1(DX)(CX*1), AX      // index in b of the row's first cell
	TESTQ        AX, AX
	JS           out
	MOVQ         n+48(FP), AX
	ADDQ         DX, AX               // and one past its last
	CMPQ         AX, blen+56(FP)
	JG           out
	VBROADCASTSD (R13)(CX*8), Y0
	SUBQ         R8, DX
	MOVQ         b+16(FP), SI
	LEAQ         (SI)(DX*8), SI       // x's grid base: b[off[k2+1]+j] in the lane of y[j]
	LEAQ         1(CX)(R8*1), AX      // the stream starts at y[k2+1]
	FIRST
	JZ           whole4
	CMPQ         AX, R10
	JEQ          only
	CMPQ         BX, $-1
	JNE          first
	VMOVAPD      (DI)(AX*1), Y5       // a new first chunk, stored whole by stream k2-1

first:
	VMASKMOVPD   (SI)(AX*1), Y6, Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y5, Y1, Y1
	VBLENDVPD    Y6, Y1, Y5, Y5
	VMASKMOVPD   Y5, Y6, (DI)(AX*1)
	ADDQ         $32, AX
	WHOLE
	TESTQ        R11, R11
	JZ           donek
	VMOVDQA      Y7, Y6
	JMP          last

only:
	VPAND        Y7, Y6, Y6           // the stream starts inside the last chunk

last:
	VMASKMOVPD   (SI)(R10*1), Y6, Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y8, Y1, Y1
	VBLENDVPD    Y6, Y1, Y8, Y8

donek:
	INCQ         CX
	CMPQ         CX, k1+40(FP)
	JLT          nextk
	MOVQ         $-1, CX

out:
	TESTQ        R11, R11
	JZ           ret
	VMASKMOVPD   Y8, Y9, (DI)(R10*1)

ret:
	MOVQ         CX, bad+64(FP)
	VZEROUPPER
	RET

// func mulScalarIntoAVX2(dst, x *float64, n int, a float64)
// dst[i] = a * x[i] for i in [0, n); n > 0.
TEXT ·mulScalarIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ         AX, AX

mulfull:
	CMPQ    CX, $4
	JLT     multail
	VMULPD  (SI)(AX*1), Y0, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JMP     mulfull

multail:
	TESTQ      CX, CX
	JZ         muldone
	LEAQ       lanemask<>(SB), R12
	NEGQ       CX
	VMOVDQU    64(R12)(CX*8), Y7
	VMASKMOVPD (SI)(AX*1), Y7, Y1
	VMULPD     Y0, Y1, Y1
	VMASKMOVPD Y1, Y7, (DI)(AX*1)

muldone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
