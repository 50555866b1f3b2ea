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

// The block product (PRODUCT, sweep_amd64.h) on four rows × two ymm vectors,
// 16 float32 or 8 float64 columns: the tile in Y0-Y7, b's vectors in Y8-Y9,
// a's broadcasts in Y10-Y11 in turn, the candidates in Y14-Y15. Whole pairs
// move c, x1, x2 and b by whole loads and stores; the pair past the last
// whole one under the lanemask masks of its columns inside [0, w), in Y12
// and Y13.
#define P0     Y0
#define P1     Y1
#define P2     Y2
#define P3     Y3
#define P4     Y4
#define P5     Y5
#define P6     Y6
#define P7     Y7
#define B1     Y8
#define B2     Y9
#define S0     Y10
#define S1     Y11
#define S2     Y10
#define S3     Y11
#define M1     Y12
#define M2     Y13
#define C1     Y14
#define C2     Y15
#define VBYTES 32

#define LDW(m, mem, reg) VLOADU mem, reg
#define STW(m, mem, reg) VLOADU reg, mem
#define LDM(m, mem, reg) VMASKMOV mem, m, reg
#define STM(m, mem, reg) VMASKMOV reg, m, mem

#define PAIRS \
pwhole: \
	LEAQ    (2*LANES)(AX), DX; \
	CMPQ    DX, w+56(FP); \
	JGT     ptail; \
	PTILE(LDW, STW, wnopre, wboth, wsecond, wonly2, wlwalk, wlword, wlbit, wlsecond, wlnext, wstored); \
	ADDQ    $(2*LANES), AX; \
	JMP     pwhole; \
ptail: \
	CMPQ    AX, w+56(FP); \
	JGE     ppairs; \
	MOVQ    w+56(FP), DX; \
	SUBQ    AX, DX; \
	NEGQ    DX; \
	LEAQ    lanemask<>(SB), R14; \
	VMOVDQU MASKHI(R14)(DX*ESIZE), Y12; \
	VMOVDQU (MASKHI+32)(R14)(DX*ESIZE), Y13; \
	PTILE(LDM, STM, mnopre, mboth, msecond, monly2, mlwalk, mlword, mlbit, mlsecond, mlnext, mstored); \
ppairs:

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

// func sweepAVX2(y, a, b *float32, off *int, k0, k1, from, n, blen, c0 int, x1 *float32, a1 float32, x2 *float32, a2 float32) (ok bool)
// The pre-streams y[j] = max(x1[j] + a1, y[j]), then x2 and a2, for j in [c0,
// n) where x1 is not nil (sweep_amd64.h); then for k2 in [k0, k1): y[j] =
// max(a[k2] + b[off[k2+1]+j], y[j]) for j in [max(k2+1, from), n). Requires
// 0 <= k0 <= k1 < n, 0 <= from < n, and k0 < k1 or pre-streams. Returns
// false, having done nothing, unless every row b[off[k2+1]+max(k2+1, from) :
// off[k2+1]+n] lies inside b[:blen].
TEXT ·sweepAVX2(SB), NOSPLIT, $0-113
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
	MOVB     $1, ok+112(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+112(FP)
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

// EACH is the pairing stream y[i] = y[i] ⊕ x[i] ⊗ w[i] for i in [0, n), with
// y in DI, x in SI, w in DX and n in CX. Like addScalarIntoAVX2 it runs once
// per row and masks only the last chunk. Clobbers AX, R12 and Y1-Y3, Y7.
#define EACH \
	XORQ     AX, AX; \
eachfull: \
	CMPQ     CX, $LANES; \
	JLT      eachtail; \
	VLOADU   (SI)(AX*1), Y1; \
	VTIMES   (DX)(AX*1), Y1, Y1; \
	VPLUS    (DI)(AX*1), Y1, Y1; \
	VLOADU   Y1, (DI)(AX*1); \
	ADDQ     $32, AX; \
	SUBQ     $LANES, CX; \
	JMP      eachfull; \
eachtail: \
	TESTQ    CX, CX; \
	JZ       eachdone; \
	LEAQ     lanemask<>(SB), R12; \
	NEGQ     CX; \
	VMOVDQU  MASKHI(R12)(CX*ESIZE), Y7; \
	VMASKMOV (SI)(AX*1), Y7, Y1; \
	VMASKMOV (DX)(AX*1), Y7, Y2; \
	VMASKMOV (DI)(AX*1), Y7, Y3; \
	VTIMES   Y2, Y1, Y1; \
	VPLUS    Y3, Y1, Y1; \
	VMASKMOV Y1, Y7, (DI)(AX*1); \
eachdone:

// func accumEachAVX2(y, x, w *float32, n int)
// y[i] = max(x[i] + w[i], y[i]) for i in [0, n); n > 0.
TEXT ·accumEachAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	EACH
	VZEROUPPER
	RET

// func productAVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, m, w, k, diag int, x1 *float32, a1 float32, x2 *float32, a2 float32, live *uint64, lstride int)
// The max-plus block product; m, w > 0, and k > 0 or x1 not nil.
TEXT ·productAVX2(SB), NOSPLIT, $24-128
	PRODUCT
	VZEROUPPER
	RET

// r2consts: -Inf, and the max-plus Zero -1e30 (semiring.NegInf).
DATA r2consts<>+0(SB)/4, $0xff800000
DATA r2consts<>+4(SB)/4, $0xf149f2ca
GLOBL r2consts<>(SB), RODATA|NOPTR, $8

// R2SPLIT takes split k's row of the star at R12 into y's chunk at byte d of
// the block, held in register y, loaded under its live-lane mask e: c[k] in
// every lane of Y0, t scratch. A dead lane takes c[k] itself, and is neither
// stored nor counted.
#define R2SPLIT(d, y, e, t) \
	VMASKMOVPS d(R12), e, t; \
	VADDPS     Y0, t, t; \
	VMAXPS     y, t, y

// R2ROW points R12 at row k+1 of the star at the block's columns, for k =
// DX+AX (R13: the star at them, R8: its pitch in bytes), and puts c[k], from
// the block's copy at R15, in every lane of Y0.
#define R2ROW \
	VBROADCASTSS (R15)(AX*4), Y0; \
	LEAQ         1(DX)(AX*1), R12; \
	IMULQ        R8, R12; \
	ADDQ         R13, R12

// R2FINAL makes the block's chunk v final: c at byte d of the copy, R2's
// value in y, its live-lane mask e. It stores c ⊕ y (c on a tie) under e
// and leaves in CX the lanes where c beat y, shifted to the block's bit v·8,
// ORed into BX.
#define R2FINAL(d, y, e, sh) \
	VMOVUPS    d(R15), Y5; \
	VCMPPS     $0x1e, y, Y5, Y6; \
	VANDPS     e, Y6, Y6; \
	VMAXPS     Y5, y, Y7; \
	VMASKMOVPS Y7, e, d(DI)(DX*4); \
	VMOVMSKPS  Y6, CX; \
	SHLQ       $sh, CX; \
	ORQ        CX, BX

// R2TRI takes chunk v's split DX+8v+t, at byte d of the copy and row t+1 of
// the star at R13 + the chunk's rows and bytes (mem), into its lanes above t
// (Y14) that are live (e): y ⊕= c ⊗ star, the other lanes -Inf (Y13).
#define R2TRI(d, mem, y, e, t) \
	VPAND        e, Y14, Y15; \
	VBROADCASTSS d(R15)(AX*4), Y0; \
	VMASKMOVPS   mem, Y15, t; \
	VADDPS       Y0, t, t; \
	VBLENDVPS    Y15, t, Y13, t; \
	VMAXPS       y, t, y

// R2STEP moves a triangle loop to the next lane, the star a row down.
#define R2STEP(loop) \
	SUBQ $4, R12; \
	ADDQ R8, R13; \
	INCQ AX; \
	CMPQ AX, $7; \
	JLT  loop; \
	JMP  r2final

// func r2AVX2(c, star *float32, lds, k0, n int, live *uint64)
// r2AVX512 on 32-column blocks, two a live word (each ORs its half in), the
// live-lane masks from lanemask in Y9-Y12 and -Inf in Y13; the walk left of a
// block reads the words below its column, the half before it included.
TEXT ·r2AVX2(SB), NOSPLIT, $128-48
	MOVQ         c+0(FP), DI
	MOVQ         star+8(FP), SI
	MOVQ         lds+16(FP), R8
	SHLQ         $2, R8
	MOVQ         k0+24(FP), R11
	MOVQ         n+32(FP), R10
	MOVQ         live+40(FP), R9
	LEAQ         buf-128(SP), R15
	VBROADCASTSS r2consts<>+0(SB), Y13
	MOVQ         R11, DX
	ANDQ         $-32, DX

r2block:
	// The live lanes [max(k0-DX, 0), min(n-DX, 32)).
	LEAQ         lanemask<>(SB), R12
	MOVQ         R11, CX
	SUBQ         DX, CX
	XORQ         AX, AX
	CMPQ         CX, AX
	CMOVQLT      AX, CX
	MOVQ         R10, AX
	SUBQ         DX, AX
	MOVQ         $32, BX
	CMPQ         AX, BX
	CMOVQGT      BX, AX
	NEGQ         CX
	NEGQ         AX
	VMOVDQU      MASKLO(R12)(CX*4), Y9
	VMOVDQU      (MASKLO+32)(R12)(CX*4), Y10
	VMOVDQU      (MASKLO+64)(R12)(CX*4), Y11
	VMOVDQU      (MASKLO+96)(R12)(CX*4), Y12
	VPAND        MASKHI(R12)(AX*4), Y9, Y9
	VPAND        (MASKHI+32)(R12)(AX*4), Y10, Y10
	VPAND        (MASKHI+64)(R12)(AX*4), Y11, Y11
	VPAND        (MASKHI+96)(R12)(AX*4), Y12, Y12
	VMASKMOVPS   (DI)(DX*4), Y9, Y5
	VBLENDVPS    Y9, Y5, Y13, Y5
	VMOVUPS      Y5, (R15)
	VMASKMOVPS   32(DI)(DX*4), Y10, Y6
	VBLENDVPS    Y10, Y6, Y13, Y6
	VMOVUPS      Y6, 32(R15)
	VMASKMOVPS   64(DI)(DX*4), Y11, Y7
	VBLENDVPS    Y11, Y7, Y13, Y7
	VMOVUPS      Y7, 64(R15)
	VMASKMOVPS   96(DI)(DX*4), Y12, Y8
	VBLENDVPS    Y12, Y8, Y13, Y8
	VMOVUPS      Y8, 96(R15)
	VBROADCASTSS r2consts<>+4(SB), Y1
	VMOVAPS      Y1, Y2
	VMOVAPS      Y1, Y3
	VMOVAPS      Y1, Y4
	LEAQ         (SI)(DX*4), R13
	MOVQ         R11, AX
	SHRQ         $6, AX
	LEAQ         63(DX), R14
	SHRQ         $6, R14

r2word:
	CMPQ AX, R14
	JGE  r2tri
	MOVQ (R9)(AX*8), BX

r2bit:
	BSFQ         BX, CX
	JZ           r2nextword
	BTRQ         CX, BX
	MOVQ         AX, R12
	SHLQ         $6, R12
	ADDQ         CX, R12
	VBROADCASTSS (DI)(R12*4), Y0
	INCQ         R12
	IMULQ        R8, R12
	ADDQ         R13, R12
	R2SPLIT(0, Y1, Y9, Y5)
	R2SPLIT(32, Y2, Y10, Y6)
	R2SPLIT(64, Y3, Y11, Y7)
	R2SPLIT(96, Y4, Y12, Y8)
	JMP          r2bit

r2nextword:
	INCQ AX
	JMP  r2word

r2tri:
	MOVQ  DX, R12
	INCQ  R12
	IMULQ R8, R12
	ADDQ  R12, R13
	MOVQ  R8, R14
	SHLQ  $3, R14
	LEAQ  (R14)(R14*2), BX
	LEAQ  lanemask<>+124(SB), R12
	XORQ  AX, AX
	MOVQ  R11, CX
	SUBQ  DX, CX
	SARQ  $3, CX
	CMPQ  CX, $1
	JLT   r2tri0
	JEQ   r2tri1
	CMPQ  CX, $2
	JEQ   r2tri2
	JMP   r2tri3

r2tri0:
	VMOVDQU (R12), Y14
	R2TRI(0, (R13), Y1, Y9, Y5)
	R2TRI(32, 32(R13)(R14*1), Y2, Y10, Y6)
	R2TRI(64, 64(R13)(R14*2), Y3, Y11, Y7)
	R2TRI(96, 96(R13)(BX*1), Y4, Y12, Y8)
	R2STEP(r2tri0)

r2tri1:
	VMOVDQU (R12), Y14
	R2TRI(32, 32(R13)(R14*1), Y2, Y10, Y6)
	R2TRI(64, 64(R13)(R14*2), Y3, Y11, Y7)
	R2TRI(96, 96(R13)(BX*1), Y4, Y12, Y8)
	R2STEP(r2tri1)

r2tri2:
	VMOVDQU (R12), Y14
	R2TRI(64, 64(R13)(R14*2), Y3, Y11, Y7)
	R2TRI(96, 96(R13)(BX*1), Y4, Y12, Y8)
	R2STEP(r2tri2)

r2tri3:
	VMOVDQU (R12), Y14
	R2TRI(96, 96(R13)(BX*1), Y4, Y12, Y8)
	R2STEP(r2tri3)

r2final:
	LEAQ    (SI)(DX*4), R13
	XORQ    BX, BX
	R2FINAL(0, Y1, Y9, 0)

r2push0:
	BSFQ CX, AX
	JZ   r2v1
	BTRQ AX, CX
	R2ROW
	R2SPLIT(32, Y2, Y10, Y6)
	R2SPLIT(64, Y3, Y11, Y7)
	R2SPLIT(96, Y4, Y12, Y8)
	JMP  r2push0

r2v1:
	R2FINAL(32, Y2, Y10, 8)

r2push1:
	BSFQ CX, AX
	JZ   r2v2
	BTRQ AX, CX
	R2ROW
	R2SPLIT(64, Y3, Y11, Y7)
	R2SPLIT(96, Y4, Y12, Y8)
	JMP  r2push1

r2v2:
	R2FINAL(64, Y3, Y11, 16)

r2push2:
	BSFQ CX, AX
	JZ   r2v3
	BTRQ AX, CX
	R2ROW
	R2SPLIT(96, Y4, Y12, Y8)
	JMP  r2push2

r2v3:
	R2FINAL(96, Y4, Y12, 24)
	MOVQ DX, CX
	ANDQ $63, CX
	SHLQ CX, BX
	MOVQ DX, AX
	SHRQ $6, AX
	ORQ  BX, (R9)(AX*8)
	ADDQ $32, DX
	CMPQ DX, R10
	JLT  r2block
	VZEROUPPER
	RET

// livebits: 1, 2, 4, ..., 128 — the bit of each lane of a chunk.
DATA livebits<>+0(SB)/4, $1
DATA livebits<>+4(SB)/4, $2
DATA livebits<>+8(SB)/4, $4
DATA livebits<>+12(SB)/4, $8
DATA livebits<>+16(SB)/4, $16
DATA livebits<>+20(SB)/4, $32
DATA livebits<>+24(SB)/4, $64
DATA livebits<>+28(SB)/4, $128
GLOBL livebits<>(SB), RODATA|NOPTR, $32

// func liveAVX2(y, pre *float32, lo, hi int, live *uint64)
// liveAVX512 on eight 8-lane chunks a word, each under the lane mask its
// byte of the word's mask spreads (livebits in Y15); VMASKMOVPS neither
// faults on, reads nor writes a masked-off lane. It loads such a lane as 0
// into both y and pre, where pre > y is false, so the compare's mask is the
// lanes to store pre into y and the live bits as it stands.
TEXT ·liveAVX2(SB), NOSPLIT, $0-40
	MOVQ    y+0(FP), DI
	MOVQ    pre+8(FP), SI
	MOVQ    lo+16(FP), R11
	MOVQ    hi+24(FP), R10
	MOVQ    live+32(FP), R9
	VMOVDQU livebits<>(SB), Y15
	MOVQ    R11, DX
	ANDQ    $-64, DX

live2word:
	WORDLANES
	MOVQ R12, R13
	XORQ R14, R14
	XORQ R8, R8

live2chunk:
	MOVQ         R12, CX
	ANDQ         $0xff, CX
	VMOVQ        CX, X0
	VPBROADCASTD X0, Y0
	VPAND        Y15, Y0, Y0
	VPCMPEQD     Y15, Y0, Y0
	LEAQ         (DX)(R8*1), AX
	VMASKMOVPS   (DI)(AX*4), Y0, Y1
	VMASKMOVPS   (SI)(AX*4), Y0, Y2
	VCMPPS       $0x1e, Y1, Y2, Y1
	VMASKMOVPS   Y2, Y1, (DI)(AX*4)
	VMOVMSKPS    Y1, AX
	MOVQ         R8, CX
	SHLQ         CX, AX
	ORQ          AX, R14
	SHRQ         $8, R12
	ADDQ         $8, R8
	CMPQ         R8, $64
	JLT          live2chunk
	WORDSTORE
	ADDQ         $64, DX
	CMPQ         DX, R10
	JLT          live2word
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

// func sumProductSweepAVX2(y, a, b *float64, off *int, k0, k1, from, n, blen, c0 int, x1 *float64, a1 float64, x2 *float64, a2 float64) (ok bool)
// After the pre-streams, for k2 in [k0, k1): y[j] = y[j] + a[k2] *
// b[off[k2+1]+j] for j in [max(k2+1, from), n), under sweepAVX2's
// requirements and with its row check.
TEXT ·sumProductSweepAVX2(SB), NOSPLIT, $0-113
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
	MOVB     $1, ok+112(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+112(FP)
	VZEROUPPER
	RET

// func sumProductEachAVX2(y, x, w *float64, n int)
// y[i] = y[i] + x[i] * w[i] for i in [0, n); n > 0.
TEXT ·sumProductEachAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	EACH
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

// func sumProductProductAVX2(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, m, w, k, diag int, x1 *float64, a1 float64, x2 *float64, a2 float64, live *uint64, lstride int)
// The sum-product block product, under productAVX2's requirements.
TEXT ·sumProductProductAVX2(SB), NOSPLIT, $24-128
	PRODUCT
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
