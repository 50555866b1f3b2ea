package maxplus

// The Go loops of the streaming kernels: the loops this package had before
// it had assembly. The Go bodies (BodyOf("go")) run them behind the vector
// bodies' checks — the max-plus stream through its 8-way unrolled loop — on
// every architecture but amd64, under the `purego` build tag and on an amd64
// CPU without AVX2. The plain loops are the oracle every body, the Go bodies
// included, is tested against bit for bit.

// AccumulateGo is the plain loop of max-plus Accum: the oracle, and
// Accumulate on a portable build.
func AccumulateGo(y, x []float32, a float32) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	y = y[:n]
	for i := range y {
		if v := a + x[i]; v > y[i] {
			y[i] = v
		}
	}
}

// AccumEachGo is max-plus AccumEach's Go loop: y[k] = max(x[k] + w[k], y[k])
// for every k of x, the pairing term of a row.
func AccumEachGo(y, x, w []float32) {
	y, w = y[:len(x)], w[:len(x)]
	for k, v := range x {
		if v += w[k]; v > y[k] {
			y[k] = v
		}
	}
}

// Accumulate8Go is AccumulateGo with an 8-way unrolled main loop, the Go
// body's Accum: it keeps the loop free of bounds checks and gives the
// hardware independent max chains to retire in parallel.
func Accumulate8Go(y, x []float32, a float32) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	y = y[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		x8 := x[i : i+8 : i+8]
		y8 := y[i : i+8 : i+8]
		v0 := a + x8[0]
		v1 := a + x8[1]
		v2 := a + x8[2]
		v3 := a + x8[3]
		v4 := a + x8[4]
		v5 := a + x8[5]
		v6 := a + x8[6]
		v7 := a + x8[7]
		if v0 > y8[0] {
			y8[0] = v0
		}
		if v1 > y8[1] {
			y8[1] = v1
		}
		if v2 > y8[2] {
			y8[2] = v2
		}
		if v3 > y8[3] {
			y8[3] = v3
		}
		if v4 > y8[4] {
			y8[4] = v4
		}
		if v5 > y8[5] {
			y8[5] = v5
		}
		if v6 > y8[6] {
			y8[6] = v6
		}
		if v7 > y8[7] {
			y8[7] = v7
		}
	}
	for ; i < n; i++ {
		if v := a + x[i]; v > y[i] {
			y[i] = v
		}
	}
}

// AddScalarIntoGo is max-plus MulInto's Go loop.
func AddScalarIntoGo(dst, x []float32, a float32) {
	n := len(dst)
	if len(x) < n {
		n = len(x)
	}
	x = x[:n]
	dst = dst[:n]
	for i := range dst {
		dst[i] = a + x[i]
	}
}

// SweepOver builds a Sweep from a stream: pre's two, then one per k2. It is
// the Go bodies' Sweep (behind their checks), the oracle's and log-sum-exp's.
func SweepOver[T ~float32 | ~float64](acc func(y, x []T, a T)) func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T]) {
	return func(y, a, b []T, off []int, k0, k1, from, n int, pre Pre[T]) {
		if pre.X1 != nil {
			acc(y[pre.C0:n], pre.X1[pre.C0:n], pre.A1)
			acc(y[pre.C0:n], pre.X2[pre.C0:n], pre.A2)
		}
		for k2 := k0; k2 < k1; k2++ {
			o, lo := off[k2+1], max(k2+1, from)
			acc(y[lo:n], b[o+lo:o+n], a[k2])
		}
	}
}

// ProductOver builds a Product from a stream: pre's two a row, then one a
// (row, split) for the splits live marks, s ascending, each from the column
// diag puts its first non-Zero cell of b in, rounded down to a multiple of 8
// — the columns left of it, whose candidates change no cell, are skipped as
// the vector bodies skip whole vectors. It is the Go bodies' Product (behind
// their checks), the oracle's and log-sum-exp's.
func ProductOver[T ~float32 | ~float64](acc func(y, x []T, a T)) func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64) {
	return func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64) {
		stride := len(live) / max(ProductTiles(m), 1)
		for r := 0; r < m; r++ {
			y := c[r*ldc : r*ldc+w]
			if pre.X1 != nil {
				acc(y, pre.X1[r*ldc:r*ldc+w], pre.A1)
				acc(y, pre.X2[r*ldc:r*ldc+w], pre.A2)
			}
			t := max(r/4, r-3*(m/4)) * stride // r's tile's bit-set
			for s := 0; s < k; s++ {
				if live == nil || live[t+s>>6]>>(s&63)&1 != 0 {
					j := min(max(s+diag, 0)&^7, w)
					acc(y[j:], b[s*ldb+j:s*ldb+w], a[r*lda+s])
				}
			}
		}
	}
}

// ProductTiles is the number of kernel tiles of a product of m rows: the
// fours, then each row left over (row r's is max(r/4, r-3*(m/4))).
func ProductTiles(m int) int { return m - 3*(m/4) }

// TileLive returns the live bit-sets of the kernel tiles of a product over
// the rows [q0, q0+m) of a, the rows' live words (w a row, bit j for column
// j), and its splits [k0, k1): each the OR of its rows' words shifted to bit s
// for split k0+s, built in dst, ProductTiles(m) sets of as many words as the
// splits span in a row of a. The bits past k1-k0 are the rows' own, which the
// product does not read.
func TileLive(dst, a []uint64, w, q0, m, k0, k1 int) []uint64 {
	q, sh := k0>>6, uint(k0&63)
	nw := (k1-1)>>6 - q + 1
	live := dst[:ProductTiles(m)*nw]
	clear(live)
	for r := range m {
		row, t := a[(q0+r)*w+q:(q0+r+1)*w], max(r/4, r-3*(m/4)) // r's tile
		set := live[t*nw : (t+1)*nw]
		for i := range set {
			v := row[i] >> sh
			if i+1 < len(row) {
				v |= row[i+1] << (64 - sh)
			}
			set[i] |= v
		}
	}
	return live
}

// zero is the max-plus Zero, semiring.NegInf: R2's value where no split
// reaches.
const zero = -1e30

// R2Go is R2's Go loop: finalize's max-plus R2 of one row c against the
// star (row r at star[r*lds:]), in place, for j in [k0, n),
//
//	c[j] = c[j] ⊕ y[j],   y[j] = ⊕ over k0 <= k < j of c[k] ⊗ star[k+1][j]
//
// (y[j] Zero where no split reaches; c on a tie or a NaN), setting bit j of
// live, whose words the caller cleared, where c[j] > y[j]: the column is live.
// A split k whose bit is clear is skipped: y[k] >= c[k] then, and the star is
// closed (star[m+1][k] ⊗ star[k+1][j] <= star[m+1][j]), so c[k] ⊗ star[k+1][j]
// <= c[m] ⊗ star[m+1][j] for a split m < k — exact in max-plus, which every
// fill is (docs/ALGORITHM.md §9, "Dominated splits"). A live column keeps its
// c, so the splits are read from the row itself. Each live split streams its
// star row into y a block of 64 columns at a time, never down a column.
func R2Go(c, star []float32, lds, k0, n int, live []uint64) {
	var y [64]float32
	for b0 := k0; b0 < n; b0 += len(y) {
		b1 := min(b0+len(y), n)
		for t := range y {
			y[t] = zero
		}
		for k := k0; k < b1; k++ {
			if k >= b0 { // every split left of column k has streamed
				if v := y[k-b0]; c[k] > v {
					live[k>>6] |= 1 << (k & 63)
				} else if v > c[k] {
					c[k] = v
				}
			}
			lo := max(k+1, b0)
			if lo >= b1 || live[k>>6]>>(k&63)&1 == 0 {
				continue
			}
			x, yb := c[k], y[lo-b0:b1-b0]
			for t, s := range star[(k+1)*lds+lo : (k+1)*lds+b1] {
				if v := x + s; v > yb[t] {
					yb[t] = v
				}
			}
		}
	}
}

// LiveGo is Live's Go loop: for j in [lo, hi) it sets bit j of live
// where pre[j] > y[j], clearing it elsewhere, and then y[j] = y[j] ⊕ pre[j]
// (y on a tie or a NaN); no other bit changes. In the substrate's closure row
// (package nussinov) y holds the row's split maximum, every split m in
// [i, j), and pre its seed ⊕ the pair term: the row ends final and a set bit
// says no split reaches the cell — R2Go's word, bit for bit, so a clear bit
// says some shorter split dominates it (docs/ALGORITHM.md §9, "The word").
func LiveGo(y, pre []float32, lo, hi int, live []uint64) {
	for j := lo; j < hi; j++ {
		live[j>>6] &^= 1 << (j & 63)
		if pre[j] > y[j] {
			y[j] = pre[j]
			live[j>>6] |= 1 << (j & 63)
		}
	}
}

// SweepGo and ProductGo are the plain max-plus loops, the oracle; the float64
// Go body runs SumProductSweepGo and SumProductProductGo.
var (
	SweepGo             = SweepOver(AccumulateGo)
	ProductGo           = ProductOver(AccumulateGo)
	SumProductSweepGo   = SweepOver(SumProductGo)
	SumProductProductGo = ProductOver(SumProductGo)
)

// The float64 sum-product loops. The product is written float64(a * x[i]): an
// explicit conversion rounds, so no build — arm64, GOAMD64=v3 — may fuse it
// with the add (Go spec, "Floating-point operators"). ⊗ then ⊕, two
// roundings, is the numeric contract the vector bodies implement with VMULPD
// and VADDPD.

// SumProductGo is float64 Accum's Go loop.
func SumProductGo(y, x []float64, a float64) {
	n := min(len(y), len(x))
	x = x[:n]
	y = y[:n]
	for i := range y {
		y[i] += float64(a * x[i])
	}
}

// SumProductEachGo is float64 AccumEach's Go loop: y[k] += x[k]·w[k] for
// every k of x, the sum-product pairing term of a row.
func SumProductEachGo(y, x, w []float64) {
	y, w = y[:len(x)], w[:len(x)]
	for k, v := range x {
		y[k] += float64(v * w[k])
	}
}

// MulScalarIntoGo is float64 MulInto's Go loop.
func MulScalarIntoGo(dst, x []float64, a float64) {
	n := min(len(dst), len(x))
	x = x[:n]
	dst = dst[:n]
	for i := range dst {
		dst[i] = a * x[i]
	}
}
