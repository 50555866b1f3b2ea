//go:build !purego

#include "textflag.h"
#include "sweep_amd64.h"

// AVX-512 bodies of the streaming kernels: avx2_amd64.s again at twice the
// width, 16 float32 or 8 float64 lanes a vector, with the lane masks in the
// opmask registers K1-K5 in place of the lanemask table.
//
// Masks. A load under a mask is zero-masking (`.Z`) and does not fault on a
// masked-off lane, so a vector that holds one element of a stream may be
// loaded wherever it lies. ⊕ under a mask is merge-masking: a masked-off lane
// of the destination — the running y — keeps its value, so no neutral operand
// and no blend is needed. A store under a mask neither writes nor faults on a
// masked-off lane: as in the AVX2 bodies, no lane outside a stream is ever
// stored, not even with the value just loaded.
//
// The VMAXPS and two-roundings rules of avx2_amd64.s hold unchanged: the
// candidate is ⊕'s first source and the running y its second, and ⊗ and ⊕
// are two instructions, never VFMADD. Only Z0-Z15 are used: VZEROUPPER, which
// every TEXT ends with, clears the upper halves of those sixteen alone.

// rowlanes: 0, 1, ..., 7 — eight consecutive k2.
DATA rowlanes<>+0(SB)/8, $0
DATA rowlanes<>+8(SB)/8, $1
DATA rowlanes<>+16(SB)/8, $2
DATA rowlanes<>+24(SB)/8, $3
DATA rowlanes<>+32(SB)/8, $4
DATA rowlanes<>+40(SB)/8, $5
DATA rowlanes<>+48(SB)/8, $6
DATA rowlanes<>+56(SB)/8, $7
GLOBL rowlanes<>(SB), RODATA|NOPTR, $64

// ROWSINSIDE is avx2_amd64.s's row check eight k2 a step: with off in R9, k0
// in R11, k1 in R14, from in R15 and blen-n in AX, it jumps to reject unless
// every row's first index off[k2+1]+max(k2+1, from) is at least 0 and its
// offset at most blen-n. The rows past k1 that the last step would load are
// masked off (K1) and left out of the verdict. Clobbers CX, DX, SI, Z0-Z7
// and K1.
#define ROWSINSIDE(reject) \
	LEAQ         8(R9)(R11*8), SI; \
	MOVQ         R14, CX; \
	SUBQ         R11, CX; \
	VPBROADCASTQ AX, Z1; \
	VPBROADCASTQ R15, Z2; \
	LEAQ         1(R11), DX; \
	VPBROADCASTQ DX, Z3; \
	VPADDQ       rowlanes<>(SB), Z3, Z3; \
	MOVQ         $8, DX; \
	VPBROADCASTQ DX, Z7; \
	VPXORQ       Z0, Z0, Z0; \
	KXNORW       K1, K1, K1; \
rows8: \
	CMPQ         CX, $8; \
	JGE          rows; \
	MOVQ         $-1, DX; \
	SHLQ         CX, DX; \
	NOTQ         DX; \
	KMOVW        DX, K1; \
	XORQ         CX, CX; \
rows: \
	VMOVDQU64.Z  (SI), K1, Z4; \
	VPADDQ       Z4, Z3, Z5; \
	VPADDQ       Z4, Z2, Z6; \
	VPANDQ       Z5, Z6, Z5; \
	VPSUBQ       Z4, Z1, Z6; \
	VPORQ        Z5, Z6, Z5; \
	VPORQ        Z5, Z0, K1, Z0; \
	VPADDQ       Z7, Z3, Z3; \
	ADDQ         $64, SI; \
	SUBQ         $8, CX; \
	JGT          rows8; \
	VPSRLQ       $63, Z0, Z0; \
	VPTESTMQ     Z0, Z0, K1; \
	KORTESTW     K1, K1; \
	JNZ          reject

// The sweep skeleton (sweep_amd64.h) on four zmm registers: a 256-byte block,
// vector v at byte Dv of it, scratch Z5-Z8, the vectors' live-lane masks in
// K1-K4 and VDIAG's in K5. R12 holds the lanes of the current diag vector
// from K+1 up as a bit mask, shifted up one lane per K.
#define BBYTES  256
#define BBSHIFT 8
#define D1      64
#define D2      128
#define D3      192
#define A0      Z0
#define V1      Z1
#define V2      Z2
#define V3      Z3
#define V4      Z4
#define T1      Z5
#define T2      Z6
#define T3      Z7
#define T4      Z8
#define E1      K1
#define E2      K2
#define E3      K3
#define E4      K4
#define VMASKST VMOVU

#define BLOCKMASKS \
	KXNORW K1, K1, K1; \
	KMOVW  K1, K2; \
	KMOVW  K1, K3; \
	KMOVW  K1, K4

// DEADMASKS sets bits [SI-B, R8-B) of R12, the block's live lanes, and hands
// LANES of them to each of K1-K4.
#define DEADMASKS \
	SUBQ  AX, SI; \
	SUBQ  AX, R8; \
	MOVQ  SI, CX; \
	MOVQ  $-1, R12; \
	SHLQ  CX, R12; \
	MOVQ  $64, CX; \
	SUBQ  R8, CX; \
	MOVQ  $-1, SI; \
	SHRQ  CX, SI; \
	ANDQ  SI, R12; \
	KMOVW R12, K1; \
	SHRQ  $LANES, R12; \
	KMOVW R12, K2; \
	SHRQ  $LANES, R12; \
	KMOVW R12, K3; \
	SHRQ  $LANES, R12; \
	KMOVW R12, K4

// DIAGSET(v) sets R12 to the lanes of vector v from K+1 up: every bit from
// K+1-B-v*LANES up (-(1<<s) is ~0<<s).
#define DIAGSET(v) \
	MOVQ DX, SI; \
	SHRQ $ESHIFT, SI; \
	SUBQ CX, SI; \
	NEGQ SI; \
	SUBQ $(v*LANES-1), SI; \
	XORQ R12, R12; \
	BTSQ SI, R12; \
	NEGQ R12

#define VEDGE(d, y, e, t) \
	VTIMESZ d(SI)(DX*1), A0, e, t; \
	VPLUS   y, t, e, y

#define VDIAG(d, y, e) \
	KMOVW   R12, K5; \
	KANDW   e, K5, K5; \
	SHLQ    $1, R12; \
	KROW; \
	VTIMESZ d(SI)(DX*1), A0, K5, Z5; \
	VPLUS   y, Z5, K5, y

// STREAM is accumulateAVX2's body on the 64-byte grid: y[i] = y[i] ⊕ a ⊗ x[i]
// for i in [0, n), with y in DI, x in SI, n in R10 and a in every lane of Z0.
// The first and the last vector are updated under a lane mask in K1.
// Clobbers AX, BX, CX, R8, R11, R12 and Z1-Z4.
#define VMASKED \
	VTIMESZ (SI)(AX*1), Z0, K1, Z1; \
	VPLUS   (DI)(AX*1), Z1, K1, Z1; \
	VMASKST Z1, K1, (DI)(AX*1)

#define STREAM \
	MOVQ    DI, R8; \
	ANDQ    $63, R8; \
	SUBQ    R8, DI; \
	SUBQ    R8, SI; \
	SHRQ    $ESHIFT, R8; \
	ADDQ    R8, R10; \
	MOVQ    R8, CX; \
	MOVQ    $-1, R11; \
	SHLQ    CX, R11; \
	XORQ    AX, AX; \
	CMPQ    R10, $LANES; \
	JA      first; \
	XORQ    R12, R12; \
	BTSQ    R10, R12; \
	DECQ    R12; \
	ANDQ    R12, R11; \
	KMOVW   R11, K1; \
	VMASKED; \
	JMP     done; \
first: \
	KMOVW   R11, K1; \
	VMASKED; \
	MOVQ    $64, AX; \
	MOVQ    R10, R12; \
	ANDQ    $(LANES-1), R10; \
	SHRQ    $LSHIFT, R12; \
	SHLQ    $6, R12; \
whole4: \
	LEAQ    256(AX), BX; \
	CMPQ    BX, R12; \
	JA      whole1; \
	VTIMES  (SI)(AX*1), Z0, Z1; \
	VTIMES  64(SI)(AX*1), Z0, Z2; \
	VTIMES  128(SI)(AX*1), Z0, Z3; \
	VTIMES  192(SI)(AX*1), Z0, Z4; \
	VPLUS   (DI)(AX*1), Z1, Z1; \
	VPLUS   64(DI)(AX*1), Z2, Z2; \
	VPLUS   128(DI)(AX*1), Z3, Z3; \
	VPLUS   192(DI)(AX*1), Z4, Z4; \
	VMOVA   Z1, (DI)(AX*1); \
	VMOVA   Z2, 64(DI)(AX*1); \
	VMOVA   Z3, 128(DI)(AX*1); \
	VMOVA   Z4, 192(DI)(AX*1); \
	MOVQ    BX, AX; \
	JMP     whole4; \
whole1: \
	CMPQ    AX, R12; \
	JAE     last; \
	VTIMES  (SI)(AX*1), Z0, Z1; \
	VPLUS   (DI)(AX*1), Z1, Z1; \
	VMOVA   Z1, (DI)(AX*1); \
	ADDQ    $64, AX; \
	JMP     whole1; \
last: \
	TESTQ   R10, R10; \
	JZ      done; \
	XORQ    R11, R11; \
	BTSQ    R10, R11; \
	DECQ    R11; \
	KMOVW   R11, K1; \
	VMASKED; \
done:

// INTO is addScalarIntoAVX2's body at 64 bytes a vector: dst[i] = a ⊗ x[i]
// for i in [0, n), with dst in DI, x in SI, n in CX and a in every lane of
// Z0, the last vector under a lane mask. Clobbers AX, DX, Z1 and K1.
#define INTO \
	XORQ    AX, AX; \
intofull: \
	CMPQ    CX, $LANES; \
	JLT     intotail; \
	VTIMES  (SI)(AX*1), Z0, Z1; \
	VMOVU   Z1, (DI)(AX*1); \
	ADDQ    $64, AX; \
	SUBQ    $LANES, CX; \
	JMP     intofull; \
intotail: \
	TESTQ   CX, CX; \
	JZ      intodone; \
	XORQ    DX, DX; \
	BTSQ    CX, DX; \
	DECQ    DX; \
	KMOVW   DX, K1; \
	VTIMESZ (SI)(AX*1), Z0, K1, Z1; \
	VMOVU   Z1, K1, (DI)(AX*1); \
intodone:

// The element type: ESIZE bytes an element (1<<ESHIFT), LANES a vector and
// BLANES a block of four (1<<BSHIFT), the broadcast, aligned and masked moves,
// ⊗ (and ⊗ zero-masked) and ⊕.
#define ESIZE   4
#define ESHIFT  2
#define LANES   16
#define LSHIFT  4
#define BLANES  64
#define BSHIFT  6
#define VSPLAT  VBROADCASTSS
#define VMOVA   VMOVAPS
#define VMOVU   VMOVUPS
#define VTIMES  VADDPS
#define VTIMESZ VADDPS.Z
#define VPLUS   VMAXPS

// func sweepAVX512(y, a, b *float32, off *int, k0, k1, from, n, blen int) (ok bool)
// sweepAVX2, on 256-byte blocks.
TEXT ·sweepAVX512(SB), NOSPLIT, $0-73
	MOVQ y+0(FP), DI
	MOVQ a+8(FP), R13
	MOVQ b+16(FP), R10
	MOVQ off+24(FP), R9
	MOVQ k0+32(FP), R11
	MOVQ k1+40(FP), R14
	MOVQ from+48(FP), R15
	MOVQ n+56(FP), BX
	MOVQ blen+64(FP), AX
	SUBQ BX, AX
	ROWSINSIDE(reject)
	SWEEP
	MOVB $1, ok+72(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+72(FP)
	VZEROUPPER
	RET

// func accumulateAVX512(y, x *float32, n int, a float32)
// accumulateAVX2, on the 64-byte grid.
TEXT ·accumulateAVX512(SB), NOSPLIT, $0-28
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), R10
	VBROADCASTSS a+24(FP), Z0
	STREAM
	VZEROUPPER
	RET

// func addScalarIntoAVX512(dst, x *float32, n int, a float32)
// addScalarIntoAVX2, 16 lanes a vector.
TEXT ·addScalarIntoAVX512(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Z0
	INTO
	VZEROUPPER
	RET

// func accumEachAVX512(y, x, w *float32, n int)
// accumEachAVX2, 16 lanes a vector.
TEXT ·accumEachAVX512(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

eachfull:
	CMPQ    CX, $16
	JLT     eachtail
	VMOVUPS (SI)(AX*1), Z1
	VADDPS  (DX)(AX*1), Z1, Z1
	VMAXPS  (DI)(AX*1), Z1, Z1
	VMOVUPS Z1, (DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $16, CX
	JMP     eachfull

eachtail:
	TESTQ     CX, CX
	JZ        eachdone
	XORQ      BX, BX
	BTSQ      CX, BX
	DECQ      BX
	KMOVW     BX, K1
	VMOVUPS.Z (SI)(AX*1), K1, Z1
	VADDPS.Z  (DX)(AX*1), Z1, K1, Z1
	VMAXPS.Z  (DI)(AX*1), Z1, K1, Z1
	VMOVUPS   Z1, K1, (DI)(AX*1)

eachdone:
	VZEROUPPER
	RET

// The float64 sum-product expansion: 8 lanes a vector, VMULPD then VADDPD.
#undef ESIZE
#undef ESHIFT
#undef LANES
#undef LSHIFT
#undef BLANES
#undef BSHIFT
#undef VSPLAT
#undef VMOVA
#undef VMOVU
#undef VTIMES
#undef VTIMESZ
#undef VPLUS
#define ESIZE   8
#define ESHIFT  3
#define LANES   8
#define LSHIFT  3
#define BLANES  32
#define BSHIFT  5
#define VSPLAT  VBROADCASTSD
#define VMOVA   VMOVAPD
#define VMOVU   VMOVUPD
#define VTIMES  VMULPD
#define VTIMESZ VMULPD.Z
#define VPLUS   VADDPD

// func sumProductSweepAVX512(y, a, b *float64, off *int, k0, k1, from, n, blen int) (ok bool)
// sumProductSweepAVX2, on 256-byte blocks.
TEXT ·sumProductSweepAVX512(SB), NOSPLIT, $0-73
	MOVQ y+0(FP), DI
	MOVQ a+8(FP), R13
	MOVQ b+16(FP), R10
	MOVQ off+24(FP), R9
	MOVQ k0+32(FP), R11
	MOVQ k1+40(FP), R14
	MOVQ from+48(FP), R15
	MOVQ n+56(FP), BX
	MOVQ blen+64(FP), AX
	SUBQ BX, AX
	ROWSINSIDE(reject)
	SWEEP
	MOVB $1, ok+72(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+72(FP)
	VZEROUPPER
	RET

// func sumProductAVX512(y, x *float64, n int, a float64)
// sumProductAVX2, on the 64-byte grid.
TEXT ·sumProductAVX512(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), R10
	VBROADCASTSD a+24(FP), Z0
	STREAM
	VZEROUPPER
	RET

// func mulScalarIntoAVX512(dst, x *float64, n int, a float64)
// mulScalarIntoAVX2, 8 lanes a vector.
TEXT ·mulScalarIntoAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Z0
	INTO
	VZEROUPPER
	RET
