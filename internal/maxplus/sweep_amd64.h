// The skeletons of the sweep and (PRODUCT, at the end) of the block product.
//
// The sweep skeleton: the fused k2 loop Sweep and SumProductSweep run, in
// terms of a block of four vector registers. avx2_amd64.s binds it to four
// ymm registers (a 128-byte block) and avx512_amd64.s to four zmm registers
// (a 256-byte block), each once per element type; the binding supplies the
// lane geometry, the registers, the ⊗/⊕ pair and the hooks named below.
//
// SWEEP is the body of the k2 loop: for k2 in [k0, k1),
//
//	y[j] = y[j] ⊕ a[k2] ⊗ b[off[k2+1]+j]   for j in [max(k2+1, from), n)
//
// with y in DI, a in R13, b in R10, off in R9, k0 in R11, k1 in R14, from in
// R15 and n in BX, 0 <= k0 < k1 < n and 0 <= from < n, and every row inside b
// (the binding's ROWSINSIDE).
//
// Pre-streams. Where x1 (an argument, with c0, a1, x2 and a2: every sweep
// TEXT declares them at the same offsets) is not nil, each block first takes
//
//	y[j] = y[j] ⊕ x1[j] ⊗ a1, then y[j] = y[j] ⊕ x2[j] ⊗ a2   for j in [c0, n)
//
// right after its load, before its k2 loop (PRESTREAMS), with from <= c0 <=
// k0 and k0 <= k1. Every lane thus takes x1, x2, then its k2 in ascending
// order, as three separate calls would. The walk starts at the block holding
// the first live lane — c0 with pre-streams, one block left of lo(k0) where c0
// = k0 is a block's last lane, and lo(k0) = max(k0+1, from) without — and the
// live-lane masks start there too. The K runs need no change: each covers the
// lanes from lo(K) up by its own diagonal mask, and no K reaches a lane left of
// lo(k0). The prologue rebases x1 and x2 onto the grid and leaves the first
// live lane in c0's slot, all in their argument slots, as every register is
// taken; a sweep without pre-streams pays one compare and branch a block.
//
// y is walked in blocks of four vectors on the BBYTES grid, and the k2 loop
// runs inside the block: V1-V4 hold the block from one load to one store, so
// a candidate costs one ⊗ from memory and one ⊕, and y makes no trip through
// memory per k2. Each lane still receives its candidates in ascending k2
// order — the lanes of a block are independent chains — so the result is the
// Go loops' bit for bit in both algebras. Everything is counted in grid lanes:
// lane g of the grid is at byte ESIZE*g from the grid base, y[j] is lane
// j+R8, and k2, from and n are moved onto the grid once (K, FROM, N below; a,
// b and off are rebased to be indexed by them).
//
// Stream K covers the lanes from lo(K) = max(K+1, FROM) up. Seen from a block
// at lane B the K are therefore in five runs, in ascending order:
//
//	K < max(B, FROM)                every live lane of the block (full)
//	K+1 in vector v = 0, 1, 2, 3    vector v from lane K+1 up, under a mask,
//	                                the vectors right of it whole, the vectors
//	                                left of it not at all (diag v)
//
// and the K beyond do not reach the block. The live lanes of a block are those
// from the first live lane (lo(K0), or c0 with pre-streams) up and below N. A
// block with dead lanes — the first one, the last one — keeps its vectors'
// live-lane masks in E1-E4 (every lane live in every other block), applies the
// streams under them (VEDGE) and stores y under them (VMASKST). R8 is 0 in
// such a block.
//
// The hooks:
//
//	BLOCKMASKS        E1-E4: every lane of the block at byte DX live
//	DEADMASKS         E1-E4: the lanes [SI, R8) live (grid lanes; AX is the
//	                  block's first lane and must survive); may clobber CX,
//	                  SI, R8 and R12
//	DIAGSET(v)        entering the diag run of vector v at K = CX
//	VEDGE(d, y, e, t) stream K on the vector at byte d, held in y, under mask e
//	VDIAG(d, y, e)    the KROW of stream K, then stream K on the vector at byte
//	                  d from lane K+1 up, under mask e
//	VMASKST           a store under a mask: src, mask, dst

// KROW loads stream K = CX: a[K] into every lane of A0 and the grid base of
// its row of b into SI.
#define KROW \
	MOVQ   8(R9)(CX*8), SI; \
	VSPLAT (R13)(CX*ESIZE), A0; \
	LEAQ   (R10)(SI*ESIZE), SI

// KNEXT closes a K loop that runs to AX.
#define KNEXT(loop) \
	INCQ CX; \
	CMPQ CX, AX; \
	JLT  loop

// VLEAN applies stream K to the vector at byte d of the block, held in
// register y, whole from memory; t is scratch.
#define VLEAN(d, y, t) \
	VTIMES d(SI)(DX*1), A0, t; \
	VPLUS  y, t, y

// DIAGK sets AX to the end of the run of K with K+1 in the vector whose last
// lane is lane c of the block: the K below B+c, and below K1.
#define DIAGK(c) \
	MOVQ    DX, AX; \
	SHRQ    $ESHIFT, AX; \
	ADDQ    $c, AX; \
	CMPQ    AX, R14; \
	CMOVQGT R14, AX

// DIAGEND leaves a diag run for the store when it ended at K1.
#define DIAGEND \
	CMPQ CX, R14; \
	JGE  store

// PRESTREAMS applies the pre-streams, if any, to the block at byte DX under
// its live-lane masks E1-E4; it keeps AX, DX and R8.
#define PRESTREAMS \
	CMPQ     x1+80(FP), $0; \
	JEQ      nopre; \
	MOVQ     x1+80(FP), SI; \
	VSPLAT   a1+88(FP), A0; \
	VEDGE(0, V1, E1, T1); \
	VEDGE(D1, V2, E2, T2); \
	VEDGE(D2, V3, E3, T3); \
	VEDGE(D3, V4, E4, T4); \
	MOVQ     x2+96(FP), SI; \
	VSPLAT   a2+104(FP), A0; \
	VEDGE(0, V1, E1, T1); \
	VEDGE(D1, V2, E2, T2); \
	VEDGE(D2, V3, E3, T3); \
	VEDGE(D3, V4, E4, T4); \
nopre:

#define SWEEP \
	MOVQ     DI, R8; \
	ANDQ     $(BBYTES-1), R8; \
	SUBQ     R8, DI; \
	SUBQ     R8, R10; \
	SUBQ     R8, R13; \
	MOVQ     x1+80(FP), SI; \
	TESTQ    SI, SI; \
	JZ       firstk; \
	SUBQ     R8, SI; \
	MOVQ     SI, x1+80(FP); \
	SUBQ     R8, x2+96(FP); \
	MOVQ     c0+72(FP), DX; \
	JMP      lanes; \
firstk: \
	LEAQ     1(R11), DX; \
	CMPQ     DX, R15; \
	CMOVQLT  R15, DX; \
lanes: \
	SHRQ     $ESHIFT, R8; \
	ADDQ     R8, R11; \
	ADDQ     R8, R14; \
	ADDQ     R8, R15; \
	ADDQ     R8, BX; \
	ADDQ     R8, DX; \
	MOVQ     DX, c0+72(FP); \
	SHLQ     $3, R8; \
	SUBQ     R8, R9; \
	SHRQ     $BSHIFT, DX; \
	SHLQ     $BBSHIFT, DX; \
block: \
	VMOVA    (DI)(DX*1), V1; \
	VMOVA    D1(DI)(DX*1), V2; \
	VMOVA    D2(DI)(DX*1), V3; \
	VMOVA    D3(DI)(DX*1), V4; \
	BLOCKMASKS; \
	MOVQ     DX, AX; \
	SHRQ     $ESHIFT, AX; \
	MOVQ     c0+72(FP), SI; \
	LEAQ     BLANES(AX), R8; \
	CMPQ     SI, AX; \
	JGT      dead; \
	CMPQ     R8, BX; \
	JLE      full; \
dead: \
	CMPQ     SI, AX; \
	CMOVQLT  AX, SI; \
	CMPQ     R8, BX; \
	CMOVQGT  BX, R8; \
	DEADMASKS; \
	XORQ     R8, R8; \
full: \
	PRESTREAMS; \
	MOVQ     R11, CX; \
	CMPQ     AX, R15; \
	CMOVQLT  R15, AX; \
	CMPQ     AX, R14; \
	CMOVQGT  R14, AX; \
	CMPQ     CX, AX; \
	JGE      diag; \
	TESTQ    R8, R8; \
	JZ       fulledge; \
	PCALIGN  $32; \
fulllean: \
	KROW; \
	VLEAN(0, V1, T1); \
	VLEAN(D1, V2, T2); \
	VLEAN(D2, V3, T3); \
	VLEAN(D3, V4, T4); \
	KNEXT(fulllean); \
	JMP      diag; \
fulledge: \
	KROW; \
	VEDGE(0, V1, E1, T1); \
	VEDGE(D1, V2, E2, T2); \
	VEDGE(D2, V3, E3, T3); \
	VEDGE(D3, V4, E4, T4); \
	KNEXT(fulledge); \
diag: \
	DIAGEND; \
	MOVQ     DX, AX; \
	SHRQ     $ESHIFT, AX; \
	MOVQ     CX, SI; \
	SUBQ     AX, SI; \
	CMPQ     SI, $(LANES-1); \
	JLT      diag0; \
	CMPQ     SI, $(2*LANES-1); \
	JLT      diag1; \
	CMPQ     SI, $(3*LANES-1); \
	JLT      diag2; \
	CMPQ     SI, $(4*LANES-1); \
	JLT      diag3; \
	JMP      store; \
diag0: \
	DIAGK(LANES-1); \
	DIAGSET(0); \
	PCALIGN  $32; \
diag0k: \
	VDIAG(0, V1, E1); \
	VEDGE(D1, V2, E2, T2); \
	VEDGE(D2, V3, E3, T3); \
	VEDGE(D3, V4, E4, T4); \
	KNEXT(diag0k); \
	DIAGEND; \
diag1: \
	DIAGK(2*LANES-1); \
	DIAGSET(1); \
	PCALIGN  $32; \
diag1k: \
	VDIAG(D1, V2, E2); \
	VEDGE(D2, V3, E3, T3); \
	VEDGE(D3, V4, E4, T4); \
	KNEXT(diag1k); \
	DIAGEND; \
diag2: \
	DIAGK(3*LANES-1); \
	DIAGSET(2); \
	PCALIGN  $32; \
diag2k: \
	VDIAG(D2, V3, E3); \
	VEDGE(D3, V4, E4, T4); \
	KNEXT(diag2k); \
	DIAGEND; \
diag3: \
	DIAGK(4*LANES-1); \
	DIAGSET(3); \
	PCALIGN  $32; \
diag3k: \
	VDIAG(D3, V4, E4); \
	KNEXT(diag3k); \
store: \
	TESTQ    R8, R8; \
	JZ       storedead; \
	VMOVA    V1, (DI)(DX*1); \
	VMOVA    V2, D1(DI)(DX*1); \
	VMOVA    V3, D2(DI)(DX*1); \
	VMOVA    V4, D3(DI)(DX*1); \
	JMP      next; \
storedead: \
	VMASKST  V1, E1, (DI)(DX*1); \
	VMASKST  V2, E2, D1(DI)(DX*1); \
	VMASKST  V3, E3, D2(DI)(DX*1); \
	VMASKST  V4, E4, D3(DI)(DX*1); \
next: \
	ADDQ     $BBYTES, DX; \
	MOVQ     DX, AX; \
	SHRQ     $ESHIFT, AX; \
	CMPQ     AX, BX; \
	JLT      block

// The block product skeleton: Product and SumProductProduct,
//
//	c[r][j] = c[r][j] ⊕ x1[r][j] ⊗ a1, then ⊕ x2[r][j] ⊗ a2   (x1 not nil)
//	c[r][j] = c[r][j] ⊕ a[r][s] ⊗ b[s][j]   for s = 0, 1, ..., k-1
//
// for r in [0, m) and j in [0, w), over rows of c, x1 and x2 ldc elements
// apart, of a lda and of b ldb, on a register tile of four rows × two vectors
// of c held across the pre-streams and the whole split loop: a split costs
// two loads of b and four broadcasts of a for eight ⊗ and eight ⊕, each b
// vector serving four rows, and every cell takes x1, x2, then its splits in
// ascending s, as in the Go loops. b holds ⊕'s identity at b[s][j] for j <
// s+diag, so the pair of vectors at column col takes the splits below p1 =
// clamp(col+LANES-diag, 0, k) with both vectors and those below p2 =
// clamp(col+2·LANES-diag, 0, k) with the second alone: the candidates of the
// rest leave every cell as it was (docs/ALGORITHM.md §9). Rows past the last
// four go one at a time, as a tile whose four rows are all that row: the four
// compute and store the same bits.
//
// Registers: c in DI and a in SI, at the current group of rows, and b in BX;
// the byte strides ldb in R9, ldc in R12 and lda in R13, and between the
// tile's rows ldc in R10, lda in R8 and 3·lda in CX (all 0 in a group of one
// row); the rows left in R11, the column in AX. x1 and x2 are kept in their
// argument slots as byte offsets from c, 0 for none. A tile has c's cells at
// R14 and 3·R10 in R15; then its split loop walks a in R14 and b in R15 and
// counts in DX, the splits of both vectors in the low half and those of the
// second alone in the high half.
//
// A binding supplies ESIZE, ESHIFT, LANES, VSPLAT, VTIMES and VPLUS as for
// the sweep, and: the tile P0-P7 (row r, vector v in P(2r+v)), b's vectors
// B1-B2, a's broadcasts S0-S3 (each used right after its load), the
// candidates C1-C2 and VBYTES, a vector's bytes; PAIRS, the loop over the
// pairs of a group of rows from AX = 0 that runs PTILE on each, with the
// pair's moves MV(m, mem, reg) — loads or stores under the column masks M1
// and M2, or whole.

// PMOVES moves the tile's eight vectors at R14 by MV.
#define PMOVES(MV) \
	MV(M1, (R14), P0); \
	MV(M2, VBYTES(R14), P1); \
	MV(M1, (R14)(R10*1), P2); \
	MV(M2, VBYTES(R14)(R10*1), P3); \
	MV(M1, (R14)(R10*2), P4); \
	MV(M2, VBYTES(R14)(R10*2), P5); \
	MV(M1, (R14)(R15*1), P6); \
	MV(M2, VBYTES(R14)(R15*1), P7)

// PCAND takes one row's two candidates, the broadcast s ⊗ B1 and B2, into its
// tile vectors lo and hi, the candidate as ⊕'s first source; PCAND2 the
// second alone.
#define PCAND(s, lo, hi) \
	VTIMES B1, s, C1; \
	VTIMES B2, s, C2; \
	VPLUS  lo, C1, lo; \
	VPLUS  hi, C2, hi

#define PCAND2(s, lo, hi) \
	VTIMES B2, s, C2; \
	VPLUS  hi, C2, hi

// PRE applies the pre-stream at byte offset x from c, ⊗ a, to the tile.
#define PROW(LD, mem1, mem2, lo, hi) \
	LD(M1, mem1, B1); \
	LD(M2, mem2, B2); \
	PCAND(S0, lo, hi)

#define PRE(LD, x, a) \
	MOVQ   x, DX; \
	ADDQ   R14, DX; \
	VSPLAT a, S0; \
	PROW(LD, (DX), VBYTES(DX), P0, P1); \
	PROW(LD, (DX)(R10*1), VBYTES(DX)(R10*1), P2, P3); \
	PROW(LD, (DX)(R10*2), VBYTES(DX)(R10*2), P4, P5); \
	PROW(LD, (DX)(R15*1), VBYTES(DX)(R15*1), P6, P7)

// PSPLIT is one split of the tile after b's row at R15 is loaded: a's four
// at R14, each by CAND.
#define PSPLIT(CAND) \
	VSPLAT (R14), S0; \
	CAND(S0, P0, P1); \
	VSPLAT (R14)(R8*1), S1; \
	CAND(S1, P2, P3); \
	VSPLAT (R14)(R8*2), S2; \
	CAND(S2, P4, P5); \
	VSPLAT (R14)(CX*1), S3; \
	CAND(S3, P6, P7); \
	ADDQ   $ESIZE, R14; \
	ADDQ   R9, R15

// PTILE runs the pair at AX, moving c, x1, x2 and b by LD and ST; the other
// arguments are its labels. With live bit-sets it walks the tile's set bits
// below p2 instead, a word at a time from split s0 (p1, p2, s0 in the frame),
// each found by BSF and cleared by BTR (BLSR and TZCNT need BMI1, which
// detect does not check), its a and b addressed from its index.
#define PTILE(LD, ST, nopre, both, second, only2, lwalk, lword, lbit, lsecond, lnext, stored) \
	LEAQ    (DI)(AX*ESIZE), R14; \
	LEAQ    (R10)(R10*2), R15; \
	PMOVES(LD); \
	CMPQ    x1+80(FP), $0; \
	JEQ     nopre; \
	PRE(LD, x1+80(FP), a1+88(FP)); \
	PRE(LD, x2+96(FP), a2+104(FP)); \
nopre: \
	MOVQ    AX, R14; \
	SUBQ    diag+72(FP), R14; \
	ADDQ    $LANES, R14; \
	LEAQ    LANES(R14), R15; \
	XORQ    DX, DX; \
	CMPQ    R14, DX; \
	CMOVQLT DX, R14; \
	CMPQ    R15, DX; \
	CMOVQLT DX, R15; \
	CMPQ    R14, k+64(FP); \
	CMOVQGT k+64(FP), R14; \
	CMPQ    R15, k+64(FP); \
	CMOVQGT k+64(FP), R15; \
	CMPQ    live+112(FP), $0; \
	JNE     lwalk; \
	SUBQ    R14, R15; \
	SHLQ    $32, R15; \
	LEAQ    (R15)(R14*1), DX; \
	MOVQ    SI, R14; \
	LEAQ    (BX)(AX*ESIZE), R15; \
	TESTL   DX, DX; \
	JZ      second; \
both: \
	LD(M1, (R15), B1); \
	LD(M2, VBYTES(R15), B2); \
	PSPLIT(PCAND); \
	DECQ    DX; \
	TESTL   DX, DX; \
	JNZ     both; \
second: \
	SHRQ    $32, DX; \
	JZ      stored; \
only2: \
	LD(M2, VBYTES(R15), B2); \
	PSPLIT(PCAND2); \
	DECQ    DX; \
	JNZ     only2; \
	JMP     stored; \
lwalk: \
	MOVQ    R14, p1-8(SP); \
	MOVQ    R15, p2-16(SP); \
	MOVQ    $0, s0-24(SP); \
lword: \
	MOVQ    s0-24(SP), DX; \
	CMPQ    DX, p2-16(SP); \
	JGE     stored; \
	SHRQ    $3, DX; \
	ADDQ    live+112(FP), DX; \
	MOVQ    (DX), DX; \
lbit: \
	BSFQ    DX, R14; \
	JZ      lnext; \
	BTRQ    R14, DX; \
	ADDQ    s0-24(SP), R14; \
	CMPQ    R14, p2-16(SP); \
	JGE     stored; \
	MOVQ    R14, R15; \
	IMULQ   R9, R15; \
	ADDQ    BX, R15; \
	LEAQ    (R15)(AX*ESIZE), R15; \
	CMPQ    R14, p1-8(SP); \
	LEAQ    (SI)(R14*ESIZE), R14; \
	LD(M2, VBYTES(R15), B2); \
	JGE     lsecond; \
	LD(M1, (R15), B1); \
	PSPLIT(PCAND); \
	JMP     lbit; \
lsecond: \
	PSPLIT(PCAND2); \
	JMP     lbit; \
lnext: \
	ADDQ    $64, s0-24(SP); \
	JMP     lword; \
stored: \
	LEAQ    (DI)(AX*ESIZE), R14; \
	LEAQ    (R10)(R10*2), R15; \
	PMOVES(ST)

// PRODUCT is the body of a product TEXT: the groups of four rows, then the
// rows left one at a time. live, unless nil, is the tiles' bit-sets, lstride
// words apart: its argument slot moves to the next tile's after each tile.
#define PRODUCT \
	MOVQ  c+0(FP), DI; \
	MOVQ  a+16(FP), SI; \
	MOVQ  b+32(FP), BX; \
	MOVQ  ldc+8(FP), R12; \
	SHLQ  $ESHIFT, R12; \
	MOVQ  lda+24(FP), R13; \
	SHLQ  $ESHIFT, R13; \
	MOVQ  ldb+40(FP), R9; \
	SHLQ  $ESHIFT, R9; \
	MOVQ  m+48(FP), R11; \
	MOVQ  R12, R10; \
	MOVQ  R13, R8; \
	LEAQ  (R8)(R8*2), CX; \
	CMPQ  x1+80(FP), $0; \
	JEQ   prows; \
	SUBQ  DI, x1+80(FP); \
	SUBQ  DI, x2+96(FP); \
prows: \
	CMPQ  R11, $4; \
	JGE   pgroup; \
	TESTQ R11, R11; \
	JZ    pdone; \
	XORQ  R10, R10; \
	XORQ  R8, R8; \
	XORQ  CX, CX; \
pgroup: \
	XORQ  AX, AX; \
	PAIRS; \
	MOVQ  lstride+120(FP), R14; \
	SHLQ  $3, R14; \
	ADDQ  R14, live+112(FP); \
	TESTQ R10, R10; \
	JZ    pone; \
	LEAQ  (DI)(R10*4), DI; \
	LEAQ  (SI)(R8*4), SI; \
	SUBQ  $4, R11; \
	JMP   prows; \
pone: \
	ADDQ  R12, DI; \
	ADDQ  R13, SI; \
	DECQ  R11; \
	JMP   prows; \
pdone:

// The live-word kernels (Body.Live) walk live a word at a time, from the word
// holding column lo: y and pre in DI and SI, lo in R11, hi in R10,
// live in R9, the word's first column in DX. WORDLANES sets R12 to the word's
// columns inside [lo, hi) as a bit mask, the lanes the body compares.
// Clobbers AX and CX.
#define WORDLANES \
	MOVQ    R11, CX; \
	SUBQ    DX, CX; \
	XORQ    AX, AX; \
	CMPQ    CX, AX; \
	CMOVQLT AX, CX; \
	MOVQ    $-1, R12; \
	SHLQ    CX, R12; \
	MOVQ    R10, CX; \
	SUBQ    DX, CX; \
	MOVQ    $64, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	NEGQ    CX; \
	ADDQ    $64, CX; \
	MOVQ    $-1, AX; \
	SHRQ    CX, AX; \
	ANDQ    AX, R12

// WORDSTORE writes the live bits in R14 into the word at DX under the mask
// in R13 (WORDLANES'), every other bit of the word as it was. Clobbers AX and
// R13.
#define WORDSTORE \
	ANDQ R13, R14; \
	NOTQ R13; \
	MOVQ DX, AX; \
	SHRQ $6, AX; \
	ANDQ (R9)(AX*8), R13; \
	ORQ  R14, R13; \
	MOVQ R13, (R9)(AX*8)
