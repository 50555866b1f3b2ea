// Package fourrussians is the sequential Four-Russians comparator: Build
// fills a Nussinov substrate table in O(n³/log n) (Venkatachalam/Gusfield/
// Frid, arXiv:1307.7820; Song, arXiv:1503.05670; specialized to BPMax's
// weighted base-pair model), bit-identical to nussinov.Build. Nothing on the
// serving path imports it — the row-streamed fill in package nussinov beat
// the tabulation 3.1–7.1× at every size measured (docs/PERFORMANCE.md,
// "Paths retired because they lost"). Its two callers are the repository
// benchmark's fourrussians.* probes (bench/layers.go) and FuzzSubstrateParity
// (package nussinov), which holds the streamed fill to this independent
// implementation of the recurrence.
//
// The classic recurrence spends almost all of its time in the concatenation
// scan max_{k=i..j-1} S[i,k] + S[k+1,j]. The key observation: when every
// allowed pair weight is an integer in [0, b] (score.Model.IntegerBounded),
// adjacent table cells differ by an integer step in that same range —
// S[i,k] - S[i,k-1] ∈ [0, b] along a row and S[k,j] - S[k+1,j] ∈ [0, b] up a
// column. Chop the k-range into blocks of q cells. Within block k₀..k₀+q-1,
//
//	S[i,k₀+t]     = S[i,k₀]   + H(t)   H(t) = Σ_{s≤t} v_s, v_s ∈ [0,b]
//	S[k₀+t+1,j]   = S[k₀+1,j] - W(t)   W(t) = Σ_{s≤t} w_s, w_s ∈ [0,b]
//
// so the block's best split is S[i,k₀] + S[k₀+1,j] + max_t (H(t) - W(t)),
// and that max depends only on the two difference vectors (v, w), not on the
// values themselves. Each vector has (b+1)^(q-1) possible encodings; the
// max over t for every (v, w) combination is precomputed once per
// (b, q) into a lookup table, after which a q-cell block costs O(1): two
// cell reads, two code reads, one table lookup. With q ≈ log₂(n)/2 the scan
// drops from O(n) to O(n/log n) per cell.
//
// Difference codes are produced in a second pass over each anti-diagonal
// (after its cells are final, before any later diagonal needs them — a
// block's codes are provably complete at strictly shorter diagonals than any
// cell that reads them). All arithmetic is max-plus over small non-negative
// integers, exact in float32, and the block decomposition enumerates
// exactly the classic candidate set — hence the bit-identical tables.
package fourrussians

import (
	"math/bits"
	"sync"

	"github.com/bpmax-go/bpmax/internal/nussinov"
)

const (
	// maxCodes caps the number of per-block difference codes (b+1)^(q-1),
	// bounding the combination table at maxCodes² float32 = 1 MiB so it
	// stays cache-resident; codes also must fit the uint16 scratch rows.
	maxCodes = 512
	// maxQ bounds the block size even when the digit base is 1 (an
	// all-forbidden model has zero differences everywhere and would
	// otherwise ask for unbounded blocks).
	maxQ = 16
)

// BlockSize returns the block width q used for an n-cell strand under a
// model whose largest integer weight is maxStep: q ≈ log₂(n)/2, lowered
// until the (maxStep+1)^(q-1) difference codes fit the table budget.
// The result is always ≥ 1; q = 1 degenerates to the classic scan.
func BlockSize(n, maxStep int) int {
	q := bits.Len(uint(n)) / 2
	if q < 1 {
		q = 1
	}
	if q > maxQ {
		q = maxQ
	}
	d := maxStep + 1
	for q > 1 && codesFor(d, q) > maxCodes {
		q--
	}
	return q
}

// codesFor returns (d)^(q-1) clamped just past maxCodes (callers only
// compare against the budget, so overflow never matters).
func codesFor(d, q int) int {
	c := 1
	for s := 1; s < q; s++ {
		c *= d
		if c > maxCodes {
			return c
		}
	}
	return c
}

// blockTable is the precomputed block-combination lookup for one (digit
// base, q): tbl[h*codes+w] = max_{t=0..q-1} (H(t) - W(t)) where H and W are
// the prefix sums of the digit vectors encoded by h and w. The t = 0 term
// is 0, so entries are never negative and a block lookup can only raise the
// running max, exactly like the scan it replaces.
type blockTable struct {
	q     int
	codes int
	tbl   []float32
}

type tableKey struct{ d, q int }

var (
	tblMu    sync.Mutex
	tblCache = map[tableKey]*blockTable{}
)

// tableFor returns the (cached) combination table for digit base d and
// block size q. Construction costs O(codes²·q) once per process per key —
// for the base-pair model at q = 4 that is 64²·4 entries of trivial work.
func tableFor(d, q int) *blockTable {
	tblMu.Lock()
	defer tblMu.Unlock()
	key := tableKey{d, q}
	if bt, ok := tblCache[key]; ok {
		return bt
	}
	bt := newBlockTable(d, q)
	tblCache[key] = bt
	return bt
}

func newBlockTable(d, q int) *blockTable {
	codes := codesFor(d, q)
	// pre[c*q+t] = prefix sum H(t) of the digit vector encoded by c
	// (digit s = c / d^(s-1) mod d, i.e. v₁ is the least significant).
	pre := make([]int32, codes*q)
	for c := 0; c < codes; c++ {
		x, sum := c, int32(0)
		for t := 1; t < q; t++ {
			sum += int32(x % d)
			x /= d
			pre[c*q+t] = sum
		}
	}
	tbl := make([]float32, codes*codes)
	for h := 0; h < codes; h++ {
		ph := pre[h*q : h*q+q]
		for w := 0; w < codes; w++ {
			pw := pre[w*q : w*q+q]
			best := int32(0) // t = 0: H(0) - W(0) = 0
			for t := 1; t < q; t++ {
				if v := ph[t] - pw[t]; v > best {
					best = v
				}
			}
			tbl[h*codes+w] = float32(best)
		}
	}
	return &blockTable{q: q, codes: codes, tbl: tbl}
}

// scratch holds the per-build difference-code rows, recycled through a pool
// so steady-state builds allocate nothing. Entries are never zeroed on
// reuse: every code a cell reads was written earlier in the same build (see
// the availability argument in the package comment), so stale values are
// unreachable.
type scratch struct {
	hrow []uint16
	vcol []uint16
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func growU16(s []uint16, n int) []uint16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint16, n)
}

// fillState carries one build's working set.
type fillState struct {
	data []float32
	sc   nussinov.ScoreFunc
	n    int
	p    int // row stride of data: the table's pitch
	q    int
	d    int // digit base = maxStep + 1
	nb   int // code blocks per row/column: ceil(n / q)
	bt   *blockTable
	scr  *scratch
	// hrow[i*nb+g] encodes the q-1 successive differences of row i over
	// columns g·q .. g·q+q-1; vcol[j*nb+g] encodes the q-1 successive
	// differences of column j over rows g·q+1 .. g·q+q.
	hrow []uint16
	vcol []uint16
}

// Build fills a fresh n×n table with the Four-Russians scheme. maxStep is
// the model's largest integer weight (from score.Model.IntegerBounded); the
// result is bit-identical to nussinov.Build with the same ScoreFunc.
func Build(n int, sc nussinov.ScoreFunc, maxStep int) *nussinov.Table {
	t := nussinov.NewGTable[float32](n)
	fillQ(t, sc, maxStep, BlockSize(n, maxStep))
	return t
}

// fillQ runs the build with an explicit block size (exercised directly by
// the q = 1, 2, 3 unit tests).
func fillQ(t *nussinov.Table, sc nussinov.ScoreFunc, maxStep, q int) {
	n := t.N
	if n < 2 {
		return
	}
	st := fillState{data: t.Data(), sc: sc, n: n, p: t.Pitch(), q: q, d: maxStep + 1}
	if q > 1 {
		st.bt = tableFor(st.d, q)
		st.nb = (n + q - 1) / q
		st.scr = scratchPool.Get().(*scratch)
		st.scr.hrow = growU16(st.scr.hrow, n*st.nb)
		st.scr.vcol = growU16(st.scr.vcol, n*st.nb)
		st.hrow = st.scr.hrow
		st.vcol = st.scr.vcol
		defer func() {
			st.hrow, st.vcol = nil, nil
			scratchPool.Put(st.scr)
		}()
	}
	for d := 1; d < n; d++ {
		for i := 0; i < n-d; i++ {
			st.data[i*st.p+i+d] = st.cell(i, i+d)
		}
		// Second pass: publish the difference codes this diagonal
		// completes.
		st.encode(d)
	}
}

// cell computes S[i,j]: the three unary candidates exactly as the classic
// cell does, then the concatenation max as head scan + full-block lookups +
// tail scan. The three ranges partition k = i..j-1, so the candidate set —
// and therefore the float32 max — is identical to the classic scan's.
func (s *fillState) cell(i, j int) float32 {
	p, data, q := s.p, s.data, s.q
	row := data[i*p : i*p+s.n : i*p+s.n]
	best := data[(i+1)*p+j] // S[i+1, j]
	if v := row[j-1]; v > best {
		best = v // S[i, j-1]
	}
	if v := data[(i+1)*p+j-1] + s.sc(i, j); v > best {
		best = v // S[i+1, j-1] + w(i, j)
	}
	g0 := (i + q - 1) / q // first block fully inside [i, ...]
	g1 := -1              // last block with g·q+q-1 <= j-1
	if j >= q {
		g1 = (j - q) / q
	}
	if q == 1 || g1 < g0 {
		// No full block in range: plain scan (also the q = 1 degenerate
		// mode and every n < q table).
		idx := (i + 1) * p
		for k := i; k < j; k++ {
			if v := row[k] + data[idx+j]; v > best {
				best = v
			}
			idx += p
		}
		return best
	}
	// Head: k in [i, g0·q-1], at most q-1 cells before block alignment.
	idx := (i + 1) * p
	for k := i; k < g0*q; k++ {
		if v := row[k] + data[idx+j]; v > best {
			best = v
		}
		idx += p
	}
	// Full blocks: one lookup per q-cell block.
	nb := s.nb
	hr := s.hrow[i*nb : i*nb+nb : i*nb+nb]
	vc := s.vcol[j*nb : j*nb+nb : j*nb+nb]
	tbl, codes := s.bt.tbl, s.bt.codes
	for g := g0; g <= g1; g++ {
		k0 := g * q
		base := row[k0] + data[(k0+1)*p+j]
		if v := base + tbl[int(hr[g])*codes+int(vc[g])]; v > best {
			best = v
		}
	}
	// Tail: k in [(g1+1)·q, j-1], at most q-1 cells after the last block.
	k := (g1 + 1) * q
	idx = (k + 1) * p
	for ; k < j; k++ {
		if v := row[k] + data[idx+j]; v > best {
			best = v
		}
		idx += p
	}
	return best
}

// encode publishes the difference codes completed by anti-diagonal d. A
// row code for block g lands in the cell at column g·q+q-1, a column code
// in the cell at row g·q+1; in both cases the guard d >= q-1 is exactly the
// condition that the whole block lies inside the triangle. Codes are built
// Horner-style from the most significant digit so digit s carries weight
// (maxStep+1)^(s-1), matching newBlockTable's extraction order.
func (s *fillState) encode(d int) {
	q := s.q
	if q == 1 || d < q-1 {
		return
	}
	n, p, nb, dd, data := s.n, s.p, s.nb, s.d, s.data
	for i := 0; i+d < n; i++ {
		j := i + d
		if (j+1)%q == 0 {
			// Row i, block g over columns k0..k0+q-1 ending at j:
			// digits v_s = S[i, k0+s] - S[i, k0+s-1].
			g := (j+1)/q - 1
			base := i*p + g*q
			code := 0
			for x := q - 1; x >= 1; x-- {
				code = code*dd + int(data[base+x]-data[base+x-1])
			}
			s.hrow[i*nb+g] = uint16(code)
		}
		if i%q == 1 {
			// Column j, block g with k0 = i-1: digits
			// w_s = S[k0+s, j] - S[k0+s+1, j].
			g := (i - 1) / q
			base := (i-1)*p + j
			code := 0
			for x := q - 1; x >= 1; x-- {
				code = code*dd + int(data[base+x*p]-data[base+(x+1)*p])
			}
			s.vcol[j*nb+g] = uint16(code)
		}
	}
}
