//go:build !purego

#include "textflag.h"
#include "sweep_amd64.h"

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
// The grid. Accumulate does not start its vector loop at the first element
// of the stream: it walks y in 32-byte chunks aligned to a fixed grid (the
// 32-byte-aligned addresses of memory), with a partial first and last chunk
// handled under a lane mask. Consecutive streams over one row start one
// element further right each time; on the grid they load exactly the chunks
// the previous stream stored, so the loads are served by store forwarding.
// Started at the first element instead, every load would straddle two earlier
// stores, which cannot be forwarded, and the loop stalls on the y loads until
// the stores reach the cache. (The 8×64 partition fill runs in ×0.78 of its
// scalar time on float64 bodies started at the first element, in ×0.55 on
// the grid: docs/PERFORMANCE.md, "Vector kernels".)
//
// Sweep goes one step further and takes y out of memory for the length of a
// k2 loop: it walks y in blocks of four chunks (128 bytes, on the 128-byte
// grid), loads a block into four registers, runs the whole k2 loop on them
// and stores the block once (SWEEP in sweep_amd64.h, bound to Y registers and
// the lanemask table below).
//
// Lanes outside the stream may be loaded (an aligned chunk or block that
// holds one element of the stream lies in its page) but are never stored, not
// even with the value just loaded: in the packed and band maps the cells on
// either side of a stream belong to other rows, which in the row-parallel
// schedules another goroutine is writing, and putting an old value back would
// lose its update. VMASKMOVPS/PD neither writes nor faults on a masked-off
// lane.

// lanemask: 128 zero bytes, 128 set bytes, 128 zero bytes — a block of zero,
// of set and of zero lanes, 32 float32 or 16 float64 each. The chunk of lanes
// that starts s lanes before the set run is set from lane s up (MASKLO: the
// mask of a first chunk); the one that starts r lanes before its end is set
// below lane r (MASKHI: the mask of a last chunk). s and r may be anything up
// to a block, so chunk v of a block that is live from its lane s up, or below
// its lane r, is masked by the 32 bytes at MASKLO+32v-ESIZE*s, or at
// MASKHI+32v-ESIZE*r.
DATA lanemask<>+128(SB)/8, $-1
DATA lanemask<>+136(SB)/8, $-1
DATA lanemask<>+144(SB)/8, $-1
DATA lanemask<>+152(SB)/8, $-1
DATA lanemask<>+160(SB)/8, $-1
DATA lanemask<>+168(SB)/8, $-1
DATA lanemask<>+176(SB)/8, $-1
DATA lanemask<>+184(SB)/8, $-1
DATA lanemask<>+192(SB)/8, $-1
DATA lanemask<>+200(SB)/8, $-1
DATA lanemask<>+208(SB)/8, $-1
DATA lanemask<>+216(SB)/8, $-1
DATA lanemask<>+224(SB)/8, $-1
DATA lanemask<>+232(SB)/8, $-1
DATA lanemask<>+240(SB)/8, $-1
DATA lanemask<>+248(SB)/8, $-1
GLOBL lanemask<>(SB), RODATA|NOPTR, $384
#define MASKLO 128
#define MASKHI 256

// rowlanes: 0, 1, 2, 3 and 4, 4, 4, 4 — four consecutive k2, and the step to
// the next four.
DATA rowlanes<>+0(SB)/8, $0
DATA rowlanes<>+8(SB)/8, $1
DATA rowlanes<>+16(SB)/8, $2
DATA rowlanes<>+24(SB)/8, $3
DATA rowlanes<>+32(SB)/8, $4
DATA rowlanes<>+40(SB)/8, $4
DATA rowlanes<>+48(SB)/8, $4
DATA rowlanes<>+56(SB)/8, $4
GLOBL rowlanes<>(SB), RODATA|NOPTR, $64

// The registers of the sweep skeleton: a in A0, the block in V1-V4 (chunk v
// at byte Dv of it), scratch T1-T4, the chunks' live-lane masks E1-E4. Y5,
// Y13 and Y14 are VDIAG's: its candidate, ⊕'s neutral operand and its mask.
#define BBYTES  128
#define BBSHIFT 7
#define D1      32
#define D2      64
#define D3      96
#define A0      Y0
#define V1      Y1
#define V2      Y2
#define V3      Y3
#define V4      Y4
#define T1      Y5
#define T2      Y6
#define T3      Y7
#define T4      Y8
#define E1      Y9
#define E2      Y10
#define E3      Y11
#define E4      Y12
#define VMASKST VMASKMOV

// The masks come from lanemask, addressed from R12 = lanemask + the block's
// byte offset: a block with dead lanes — live from lane SI, below lane R8 —
// has its chunk v masked by the 32 bytes at MASKLO+32v-ESIZE*(SI-B) and at
// MASKHI+32v-ESIZE*(R8-B).
#define BLOCKMASKS \
	LEAQ     lanemask<>(SB), R12; \
	ADDQ     DX, R12; \
	VPCMPEQD Y9, Y9, Y9; \
	VMOVDQA  Y9, Y10; \
	VMOVDQA  Y9, Y11; \
	VMOVDQA  Y9, Y12

#define DEADMASKS \
	NEGQ     SI; \
	NEGQ     R8; \
	VMOVDQU  MASKLO(R12)(SI*ESIZE), Y9; \
	VMOVDQU  (MASKLO+32)(R12)(SI*ESIZE), Y10; \
	VMOVDQU  (MASKLO+64)(R12)(SI*ESIZE), Y11; \
	VMOVDQU  (MASKLO+96)(R12)(SI*ESIZE), Y12; \
	VPAND    MASKHI(R12)(R8*ESIZE), Y9, Y9; \
	VPAND    (MASKHI+32)(R12)(R8*ESIZE), Y10, Y10; \
	VPAND    (MASKHI+64)(R12)(R8*ESIZE), Y11, Y11; \
	VPAND    (MASKHI+96)(R12)(R8*ESIZE), Y12, Y12

// The diagonal's mask is looked up per K (VDIAG); there is nothing to set.
#define DIAGSET(v)

// VEDGE loads b under the chunk's live-lane mask e. VDIAG applies stream K
// from lane K+1 up: the mask of lanes > K (MASKLO plus the chunk's byte
// offset, indexed by K), cut to the live lanes, is left in Y14, and the lanes
// outside it get the neutral operand, so the blend stays off the y → ⊕ → y
// chain.
#define VEDGE(d, y, e, t) \
	VMASKMOV d(SI)(DX*1), e, t; \
	VTIMES   Y0, t, t; \
	VPLUS    y, t, y

#define VDIAG(d, y, e) \
	MOVQ     CX, SI; \
	NOTQ     SI; \
	VMOVDQU  (MASKLO+d)(R12)(SI*ESIZE), Y14; \
	VPAND    e, Y14, Y14; \
	KROW; \
	VMASKMOV d(SI)(DX*1), Y14, Y5; \
	VTIMES   Y0, Y5, Y5; \
	VBLENDV  Y14, Y5, Y13, Y5; \
	VPLUS    y, Y5, y

// The element type of the skeleton: ESIZE bytes an element (1<<ESHIFT), LANES
// a chunk (1<<LSHIFT) and BLANES a block of four (1<<BSHIFT), masked moves,
// whole loads and stores, the broadcast and the blend, ⊗ and ⊕.
#define ESIZE    4
#define ESHIFT   2
#define LANES    8
#define LSHIFT   3
#define BLANES   32
#define BSHIFT   5
#define VMASKMOV VMASKMOVPS
#define VLOADU   VMOVUPS
#define VMOVA    VMOVAPS
#define VSPLAT   VBROADCASTSS
#define VBLENDV  VBLENDVPS
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
	VMOVDQU MASKHI(R12)(AX*ESIZE), Y7

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
	VMOVDQU MASKLO(R12)(BX*ESIZE), Y6; \
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
	VMOVA Y1, (DI)(AX*1); \
	VMOVA Y2, 32(DI)(AX*1); \
	VMOVA Y3, 64(DI)(AX*1); \
	VMOVA Y4, 96(DI)(AX*1); \
	MOVQ    BX, AX; \
	JMP     whole4; \
whole1: \
	CMPQ    AX, R10; \
	JAE     wholedone; \
	VLOADU  (SI)(AX*1), Y1; \
	VTIMES  Y0, Y1, Y1; \
	VPLUS   (DI)(AX*1), Y1, Y1; \
	VMOVA Y1, (DI)(AX*1); \
	ADDQ    $32, AX; \
	JMP     whole1; \
wholedone:

// ROWSINSIDE is the sweeps' row check, four k2 a step: with off in R9, k0 in
// R11, k1 in R14, from in R15 and blen-n in AX, it jumps to reject unless
// every row's first index off[k2+1]+max(k2+1, from) is at least 0 and its
// offset at most blen-n. The sign of o+max(k, f) is that of (o+k)&(o+f), so
// a row outside b sets the sign bit of its lane of Y0. The rows past k1 that
// the last step loads are masked to offset 0 and left out of the verdict.
// Clobbers CX, DX, SI, R12 and Y0-Y7.
#define ROWSINSIDE(reject) \
	LEAQ         8(R9)(R11*8), SI; \
	MOVQ         R14, CX; \
	SUBQ         R11, CX; \
	VMOVQ        AX, X1; \
	VPBROADCASTQ X1, Y1; \
	VMOVQ        R15, X2; \
	VPBROADCASTQ X2, Y2; \
	LEAQ         1(R11), DX; \
	VMOVQ        DX, X3; \
	VPBROADCASTQ X3, Y3; \
	VPADDQ       rowlanes<>(SB), Y3, Y3; \
	VPXOR        Y0, Y0, Y0; \
	VPCMPEQD     Y7, Y7, Y7; \
rows4: \
	CMPQ         CX, $4; \
	JGE          rows; \
	TESTQ        CX, CX; \
	JZ           rowsdone; \
	LEAQ         lanemask<>(SB), R12; \
	NEGQ         CX; \
	VMOVDQU      MASKHI(R12)(CX*8), Y7; \
	XORQ         CX, CX; \
rows: \
	VPMASKMOVQ   (SI), Y7, Y4; \
	VPADDQ       Y4, Y3, Y5; \
	VPADDQ       Y4, Y2, Y6; \
	VPAND        Y5, Y6, Y5; \
	VPSUBQ       Y4, Y1, Y6; \
	VPOR         Y5, Y6, Y5; \
	VPAND        Y7, Y5, Y5; \
	VPOR         Y5, Y0, Y0; \
	VPADDQ       rowlanes<>+32(SB), Y3, Y3; \
	ADDQ         $32, SI; \
	SUBQ         $4, CX; \
	JGT          rows4; \
rowsdone: \
	VMOVMSKPD    Y0, CX; \
	TESTQ        CX, CX; \
	JNZ          reject

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

// func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen int) (ok bool)
// For k2 in [k0, k1): y[j] = max(a[k2] + b[off[k2+1]+j], y[j]) for j in
// [max(k2+1, from), n). Requires 0 <= k0 < k1 < n and 0 <= from < n. Returns
// false, having done nothing, unless every row b[off[k2+1]+max(k2+1, from) :
// off[k2+1]+n] lies inside b[:blen].
TEXT ·sweepAVX2(SB), NOSPLIT, $0-73
	MOVQ     y+0(FP), DI
	MOVQ     a+8(FP), R13
	MOVQ     b+16(FP), R10
	MOVQ     off+24(FP), R9
	MOVQ     k0+32(FP), R11
	MOVQ     k1+40(FP), R14
	MOVQ     from+48(FP), R15
	MOVQ     n+56(FP), BX
	MOVQ     blen+64(FP), AX
	SUBQ     BX, AX
	ROWSINSIDE(reject)
	VPCMPEQD Y13, Y13, Y13   // NaN: VMAXPS returns its second source, y
	SWEEP
	MOVB     $1, ok+72(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+72(FP)
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
	VMOVDQU    MASKHI(R12)(CX*4), Y7
	VMASKMOVPS (SI)(AX*1), Y7, Y1
	VADDPS     Y0, Y1, Y1
	VMASKMOVPS Y1, Y7, (DI)(AX*1)

adddone:
	VZEROUPPER
	RET

// func accumEachAVX2(y, x, w *float32, n int)
// y[i] = max(x[i] + w[i], y[i]) for i in [0, n); n > 0. Like
// addScalarIntoAVX2 it runs once per row and masks only the last chunk.
TEXT ·accumEachAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

eachfull:
	CMPQ    CX, $8
	JLT     eachtail
	VMOVUPS (SI)(AX*1), Y1
	VADDPS  (DX)(AX*1), Y1, Y1
	VMAXPS  (DI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     eachfull

eachtail:
	TESTQ      CX, CX
	JZ         eachdone
	LEAQ       lanemask<>(SB), R12
	NEGQ       CX
	VMOVDQU    MASKHI(R12)(CX*4), Y7
	VMASKMOVPS (SI)(AX*1), Y7, Y1
	VMASKMOVPS (DX)(AX*1), Y7, Y2
	VMASKMOVPS (DI)(AX*1), Y7, Y3
	VADDPS     Y2, Y1, Y1
	VMAXPS     Y3, Y1, Y1
	VMASKMOVPS Y1, Y7, (DI)(AX*1)

eachdone:
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
#undef BLANES
#undef BSHIFT
#undef VMASKMOV
#undef VLOADU
#undef VMOVA
#undef VSPLAT
#undef VBLENDV
#undef VTIMES
#undef VPLUS
#define ESIZE    8
#define ESHIFT   3
#define LANES    4
#define LSHIFT   2
#define BLANES   16
#define BSHIFT   4
#define VMASKMOV VMASKMOVPD
#define VLOADU   VMOVUPD
#define VMOVA    VMOVAPD
#define VSPLAT   VBROADCASTSD
#define VBLENDV  VBLENDVPD
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

// func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen int) (ok bool)
// For k2 in [k0, k1): y[j] = y[j] + a[k2] * b[off[k2+1]+j] for j in
// [max(k2+1, from), n), under sweepAVX2's requirements and with its row check.
TEXT ·sumProductSweepAVX2(SB), NOSPLIT, $0-73
	MOVQ     y+0(FP), DI
	MOVQ     a+8(FP), R13
	MOVQ     b+16(FP), R10
	MOVQ     off+24(FP), R9
	MOVQ     k0+32(FP), R11
	MOVQ     k1+40(FP), R14
	MOVQ     from+48(FP), R15
	MOVQ     n+56(FP), BX
	MOVQ     blen+64(FP), AX
	SUBQ     BX, AX
	ROWSINSIDE(reject)
	VPCMPEQD Y13, Y13, Y13
	VPSLLQ   $63, Y13, Y13   // -0: y + -0 is y
	SWEEP
	MOVB     $1, ok+72(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+72(FP)
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
	VMOVDQU    MASKHI(R12)(CX*8), Y7
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
