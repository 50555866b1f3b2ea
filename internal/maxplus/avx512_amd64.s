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

// EACH is accumEachAVX2's body at 64 bytes a vector: y[i] = y[i] ⊕ x[i] ⊗ w[i]
// for i in [0, n), with y in DI, x in SI, w in DX and n in CX, the last vector
// under a lane mask. Clobbers AX, BX, Z1 and K1.
#define EACH \
	XORQ    AX, AX; \
eachfull: \
	CMPQ    CX, $LANES; \
	JLT     eachtail; \
	VMOVU   (SI)(AX*1), Z1; \
	VTIMES  (DX)(AX*1), Z1, Z1; \
	VPLUS   (DI)(AX*1), Z1, Z1; \
	VMOVU   Z1, (DI)(AX*1); \
	ADDQ    $64, AX; \
	SUBQ    $LANES, CX; \
	JMP     eachfull; \
eachtail: \
	TESTQ   CX, CX; \
	JZ      eachdone; \
	XORQ    BX, BX; \
	BTSQ    CX, BX; \
	DECQ    BX; \
	KMOVW   BX, K1; \
	VMOVU   (SI)(AX*1), K1, Z1; \
	VTIMESZ (DX)(AX*1), Z1, K1, Z1; \
	VPLUS   (DI)(AX*1), Z1, K1, Z1; \
	VMOVU   Z1, K1, (DI)(AX*1); \
eachdone:

// The block product (PRODUCT, sweep_amd64.h) on four rows × two zmm vectors,
// 32 float32 or 16 float64 columns: the tile in Z0-Z7, b's vectors in Z8-Z9,
// a's broadcasts in Z10-Z13, the candidates in Z14-Z15. Every pair moves c,
// x1, x2 and b under the opmasks K1 and K2 of its columns inside [0, w) (a
// whole pair's are all ones): zero-masked, fault-free loads, and stores that
// write no lane outside a row of c.
#define P0     Z0
#define P1     Z1
#define P2     Z2
#define P3     Z3
#define P4     Z4
#define P5     Z5
#define P6     Z6
#define P7     Z7
#define B1     Z8
#define B2     Z9
#define S0     Z10
#define S1     Z11
#define S2     Z12
#define S3     Z13
#define C1     Z14
#define C2     Z15
#define M1     K1
#define M2     K2
#define VBYTES 64

#define PLOAD(m, mem, reg)  VMOVUZ mem, m, reg
#define PSTORE(m, mem, reg) VMOVU reg, m, mem

#define PAIRS \
ppair: \
	MOVQ    w+56(FP), DX; \
	SUBQ    AX, DX; \
	MOVQ    $(2*LANES), R14; \
	CMPQ    DX, R14; \
	CMOVQGT R14, DX; \
	XORQ    R14, R14; \
	BTSQ    DX, R14; \
	DECQ    R14; \
	KMOVW   R14, K1; \
	SHRQ    $LANES, R14; \
	KMOVW   R14, K2; \
	PTILE(PLOAD, PSTORE, pnopre, pboth, psecond, ponly2, plwalk, plword, plbit, plsecond, plnext, pstored); \
	ADDQ    $(2*LANES), AX; \
	CMPQ    AX, w+56(FP); \
	JLT     ppair

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
#define VMOVUZ  VMOVUPS.Z
#define VTIMES  VADDPS
#define VTIMESZ VADDPS.Z
#define VPLUS   VMAXPS

// func sweepAVX512(y, a, b *float32, off *int, k0, k1, from, n, blen, c0 int, x1 *float32, a1 float32, x2 *float32, a2 float32) (ok bool)
// sweepAVX2, on 256-byte blocks.
TEXT ·sweepAVX512(SB), NOSPLIT, $0-113
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
	MOVB $1, ok+112(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+112(FP)
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
	EACH
	VZEROUPPER
	RET

// func productAVX512(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, m, w, k, diag int, x1 *float32, a1 float32, x2 *float32, a2 float32, live *uint64, lstride int)
// The max-plus block product; m, w > 0, and k > 0 or x1 not nil.
TEXT ·productAVX512(SB), NOSPLIT, $24-128
	PRODUCT
	VZEROUPPER
	RET

// r2consts: -Inf, and the max-plus Zero -1e30 (semiring.NegInf).
DATA r2consts<>+0(SB)/4, $0xff800000
DATA r2consts<>+4(SB)/4, $0xf149f2ca
GLOBL r2consts<>(SB), RODATA|NOPTR, $8

// R2SPLIT takes split k's row of the star at R12 into y's vector v, held in
// register y, under its live-lane mask e: c[k] in every lane of Z0, t scratch.
#define R2SPLIT(d, y, e, t) \
	VADDPS.Z d(R12), Z0, e, t; \
	VMAXPS   y, t, e, y

// R2ROW points R12 at row k+1 of the star at the block's columns, for k =
// DX+AX (R13: the star at them, R8: its pitch in bytes), and puts c[k], from
// the block's copy at R15, in every lane of Z0.
#define R2ROW \
	VBROADCASTSS (R15)(AX*4), Z0; \
	LEAQ         1(DX)(AX*1), R12; \
	IMULQ        R8, R12; \
	ADDQ         R13, R12

// R2TRI takes vector v's split at lane AX, its c at byte d of the block's
// copy and its row of the star at mem, into the vector's lanes above AX (K5)
// that are live (e), held in y: k a mask, s and t scratch.
#define R2TRI(d, mem, y, e, k, s, t) \
	KANDW        e, K5, k; \
	VBROADCASTSS d(R15)(AX*4), s; \
	VADDPS.Z     mem, s, k, t; \
	VMAXPS       y, t, k, y

// R2STEP moves a triangle loop to the next lane, the star a row down.
#define R2STEP(loop) \
	SHLQ $1, R12; \
	ADDQ R8, R13; \
	INCQ AX; \
	CMPQ AX, $15; \
	JLT  loop; \
	JMP  r2final

// R2FINAL makes the block's vector v final: c in c, R2's value in y, its
// live-lane mask e, at byte d of the block. It stores c ⊕ y (c on a tie)
// under e and leaves in CX the lanes where c beat y, shifted to the block's
// bit v·16, ORed into BX.
#define R2FINAL(d, c, y, e, sh) \
	VCMPPS  $0x1e, y, c, e, K6; \
	VMAXPS  c, y, Z9; \
	VMOVUPS Z9, e, d(DI)(DX*4); \
	KMOVW   K6, CX; \
	SHLQ    $sh, CX; \
	ORQ     CX, BX

// func r2AVX512(c, star *float32, lds, k0, n int, live *uint64)
// R2Go's row, k0 < n, into live's words, cleared: c in 64-column blocks on the
// grid of absolute columns, one live word a block, y in Z1-Z4 from Zero. A
// block takes the live splits left of it from the words (BSF/BTR, as PTILE's
// walk), then each vector's own splits dense, the four triangles interleaved
// — a split with its bit clear changes no cell, so taking it is harmless —
// then, vector by vector, makes the vector final and takes its live splits
// into the vectors right of it. The block's c is kept at buf with -Inf in its
// dead lanes (left of k0, from n), whose dense splits thus change nothing;
// the live-lane masks K1-K4 keep every load and store inside [k0, n).
TEXT ·r2AVX512(SB), NOSPLIT, $256-48
	MOVQ c+0(FP), DI
	MOVQ star+8(FP), SI
	MOVQ lds+16(FP), R8
	SHLQ $2, R8
	MOVQ k0+24(FP), R11
	MOVQ n+32(FP), R10
	MOVQ live+40(FP), R9
	LEAQ buf-256(SP), R15
	MOVQ R11, DX
	ANDQ $-64, DX

r2block:
	// The live lanes [max(k0-DX, 0), min(n-DX, 64)), 16 to each of K1-K4.
	MOVQ    R11, CX
	SUBQ    DX, CX
	XORQ    AX, AX
	CMPQ    CX, AX
	CMOVQLT AX, CX
	MOVQ    $-1, R12
	SHLQ    CX, R12
	MOVQ    R10, CX
	SUBQ    DX, CX
	CMPQ    CX, $64
	JGE     r2masks
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	ANDQ    AX, R12

r2masks:
	KMOVW        R12, K1
	SHRQ         $16, R12
	KMOVW        R12, K2
	SHRQ         $16, R12
	KMOVW        R12, K3
	SHRQ         $16, R12
	KMOVW        R12, K4
	VBROADCASTSS r2consts<>+0(SB), Z5
	VMOVAPS      Z5, Z6
	VMOVAPS      Z5, Z7
	VMOVAPS      Z5, Z8
	VMOVUPS      (DI)(DX*4), K1, Z5
	VMOVUPS      64(DI)(DX*4), K2, Z6
	VMOVUPS      128(DI)(DX*4), K3, Z7
	VMOVUPS      192(DI)(DX*4), K4, Z8
	VMOVUPS      Z5, (R15)
	VMOVUPS      Z6, 64(R15)
	VMOVUPS      Z7, 128(R15)
	VMOVUPS      Z8, 192(R15)
	VBROADCASTSS r2consts<>+4(SB), Z1
	VMOVAPS      Z1, Z2
	VMOVAPS      Z1, Z3
	VMOVAPS      Z1, Z4
	LEAQ         (SI)(DX*4), R13

	// The live splits left of the block: words [k0/64, DX/64), split k's c
	// read from the row, final and its own.
	MOVQ R11, AX
	SHRQ $6, AX
	MOVQ DX, R14
	SHRQ $6, R14

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
	VBROADCASTSS (DI)(R12*4), Z0
	INCQ         R12
	IMULQ        R8, R12
	ADDQ         R13, R12
	R2SPLIT(0, Z1, K1, Z9)
	R2SPLIT(64, Z2, K2, Z10)
	R2SPLIT(128, Z3, K3, Z11)
	R2SPLIT(192, Z4, K4, Z12)
	JMP          r2bit

r2nextword:
	INCQ AX
	JMP  r2word

	// The vectors' own splits, lane t of each a step, from the first vector
	// holding a column from k0 on: vector v's split DX+16v+t reaches its lanes
	// above t (K5), row DX+16v+t+1 of the star at R13 + 16v rows.
r2tri:
	MOVQ  DX, R12
	INCQ  R12
	IMULQ R8, R12
	ADDQ  R12, R13
	MOVQ  R8, R14
	SHLQ  $4, R14
	LEAQ  (R14)(R14*2), BX
	MOVQ  $-2, R12
	XORQ  AX, AX
	MOVQ  R11, CX
	SUBQ  DX, CX
	SARQ  $4, CX
	CMPQ  CX, $1
	JLT   r2tri0
	JEQ   r2tri1
	CMPQ  CX, $2
	JEQ   r2tri2
	JMP   r2tri3

r2tri0:
	KMOVW R12, K5
	R2TRI(0, (R13), Z1, K1, K6, Z0, Z9)
	R2TRI(64, 64(R13)(R14*1), Z2, K2, K7, Z10, Z11)
	R2TRI(128, 128(R13)(R14*2), Z3, K3, K6, Z12, Z13)
	R2TRI(192, 192(R13)(BX*1), Z4, K4, K7, Z14, Z15)
	R2STEP(r2tri0)

r2tri1:
	KMOVW R12, K5
	R2TRI(64, 64(R13)(R14*1), Z2, K2, K7, Z10, Z11)
	R2TRI(128, 128(R13)(R14*2), Z3, K3, K6, Z12, Z13)
	R2TRI(192, 192(R13)(BX*1), Z4, K4, K7, Z14, Z15)
	R2STEP(r2tri1)

r2tri2:
	KMOVW R12, K5
	R2TRI(128, 128(R13)(R14*2), Z3, K3, K6, Z12, Z13)
	R2TRI(192, 192(R13)(BX*1), Z4, K4, K7, Z14, Z15)
	R2STEP(r2tri2)

r2tri3:
	KMOVW R12, K5
	R2TRI(192, 192(R13)(BX*1), Z4, K4, K7, Z14, Z15)
	R2STEP(r2tri3)

	// Vector by vector: final, stored, its live splits into the vectors right.
r2final:
	LEAQ (SI)(DX*4), R13
	XORQ BX, BX
	R2FINAL(0, Z5, Z1, K1, 0)

r2push0:
	BSFQ CX, AX
	JZ   r2v1
	BTRQ AX, CX
	R2ROW
	R2SPLIT(64, Z2, K2, Z10)
	R2SPLIT(128, Z3, K3, Z11)
	R2SPLIT(192, Z4, K4, Z12)
	JMP  r2push0

r2v1:
	R2FINAL(64, Z6, Z2, K2, 16)

r2push1:
	BSFQ CX, AX
	JZ   r2v2
	BTRQ AX, CX
	R2ROW
	R2SPLIT(128, Z3, K3, Z11)
	R2SPLIT(192, Z4, K4, Z12)
	JMP  r2push1

r2v2:
	R2FINAL(128, Z7, Z3, K3, 32)

r2push2:
	BSFQ CX, AX
	JZ   r2v3
	BTRQ AX, CX
	R2ROW
	R2SPLIT(192, Z4, K4, Z12)
	JMP  r2push2

r2v3:
	R2FINAL(192, Z8, Z4, K4, 48)
	MOVQ DX, AX
	SHRQ $6, AX
	MOVQ BX, (R9)(AX*8)
	ADDQ $64, DX
	CMPQ DX, R10
	JLT  r2block
	VZEROUPPER
	RET

// LIVEVEC finishes vector v of the word, at byte d from its first column,
// under its lanes' mask k (zero-masking loads, which do not fault on a
// masked-off lane): where pre > y (ordered, a NaN compares false) it stores
// pre into y and sets the lane's bit, shifted to bit sh, in R14.
#define LIVEVEC(d, k, sh) \
	VMOVUPS.Z d(DI)(DX*4), k, Z1; \
	VMOVUPS.Z d(SI)(DX*4), k, Z2; \
	VCMPPS    $0x1e, Z1, Z2, k, K5; \
	VMOVUPS   Z2, K5, d(DI)(DX*4); \
	KMOVW     K5, AX; \
	SHLQ      $sh, AX; \
	ORQ       AX, R14

// func liveAVX512(y, pre *float32, lo, hi int, live *uint64)
// LiveGo's loop, lo < hi: a word of live at a time (sweep_amd64.h's
// WORDLANES and WORDSTORE), its 64 columns four vectors under K1-K4.
TEXT ·liveAVX512(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ pre+8(FP), SI
	MOVQ lo+16(FP), R11
	MOVQ hi+24(FP), R10
	MOVQ live+32(FP), R9
	MOVQ R11, DX
	ANDQ $-64, DX

liveword:
	WORDLANES
	MOVQ  R12, R13
	KMOVW R12, K1
	SHRQ  $16, R12
	KMOVW R12, K2
	SHRQ  $16, R12
	KMOVW R12, K3
	SHRQ  $16, R12
	KMOVW R12, K4
	XORQ  R14, R14
	LIVEVEC(0, K1, 0)
	LIVEVEC(64, K2, 16)
	LIVEVEC(128, K3, 32)
	LIVEVEC(192, K4, 48)
	WORDSTORE
	ADDQ  $64, DX
	CMPQ  DX, R10
	JLT   liveword
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
#undef VMOVUZ
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
#define VMOVUZ  VMOVUPD.Z
#define VTIMES  VMULPD
#define VTIMESZ VMULPD.Z
#define VPLUS   VADDPD

// func sumProductSweepAVX512(y, a, b *float64, off *int, k0, k1, from, n, blen, c0 int, x1 *float64, a1 float64, x2 *float64, a2 float64) (ok bool)
// sumProductSweepAVX2, on 256-byte blocks.
TEXT ·sumProductSweepAVX512(SB), NOSPLIT, $0-113
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
	MOVB $1, ok+112(FP)
	VZEROUPPER
	RET

reject:
	MOVB $0, ok+112(FP)
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

// func sumProductEachAVX512(y, x, w *float64, n int)
// sumProductEachAVX2, 8 lanes a vector.
TEXT ·sumProductEachAVX512(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	EACH
	VZEROUPPER
	RET

// func sumProductProductAVX512(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, m, w, k, diag int, x1 *float64, a1 float64, x2 *float64, a2 float64, live *uint64, lstride int)
// The sum-product block product, under productAVX512's requirements.
TEXT ·sumProductProductAVX512(SB), NOSPLIT, $24-128
	PRODUCT
	VZEROUPPER
	RET
