package bpmax

import (
	"context"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/semiring"
	"github.com/bpmax-go/bpmax/internal/tri"
)

// WTable is the float32 instantiation — the historical name used by the
// windowed scan, the pool and the degradation ladder.
type WTable = WTableOf[float32]

// WTableOf is the banded (windowed) F table: only cells with j1-i1 < W1 and
// j2-i2 < W2 are computed and stored. This reproduces the windowed BPMax
// formulation that Gildemaster et al. used to fit the GPU's memory: storage
// drops from Θ(N1²N2²) to Θ(N1·W1·N2·W2), and because the recurrence for an
// in-window cell reads only in-window cells, every stored value equals the
// full table's value at the same indices. Storage is generic over the
// solving scalar, but the windowed fill itself is max-plus only — the
// partition algebra never takes the windowed degradation rung (its answer
// is a global sum, which a band cannot represent).
type WTableOf[T semiring.Scalar] struct {
	N1, N2, W1, W2 int
	outer, inner   tri.BandMap
	isize          int
	rowOff         []int // inner's row bases, as FTableOf.rowOff
	data           []T
	pl             *Pool
}

// initWTable sets every field of w except the data buffer, clamping the
// windows to the sequence lengths; it backs both the fresh and the pooled
// constructor.
func initWTable[T semiring.Scalar](w *WTableOf[T], n1, n2, w1, w2 int) {
	if w1 <= 0 || w2 <= 0 {
		panic(fmt.Sprintf("bpmax: invalid windows (%d, %d)", w1, w2))
	}
	if w1 > n1 {
		w1 = n1
	}
	if w2 > n2 {
		w2 = n2
	}
	w.N1, w.N2, w.W1, w.W2 = n1, n2, w1, w2
	w.outer = tri.BandMap{N: n1, W: w1}
	w.inner = tri.BandMap{N: n2, W: w2}
	w.isize = w.inner.Size()
	w.rowOff = rowOffsets(w.inner, n2, w.rowOff)
}

// NewWTable allocates a zeroed banded table; windows are clamped to the
// sequence lengths.
func NewWTable(n1, n2, w1, w2 int) *WTable {
	w := &WTable{}
	initWTable(w, n1, n2, w1, w2)
	w.data = make([]float32, w.outer.Size()*w.isize)
	return w
}

// Release returns a pooled band's storage and shell to its pool. It is
// idempotent and a no-op for unpooled tables; the table must not be used
// after Release. Only float32 bands are pooled (the pool never hands out
// any other instantiation).
func (w *WTableOf[T]) Release() {
	if w == nil || w.pl == nil {
		return
	}
	pl := w.pl
	w.pl = nil
	if t, ok := any(w).(*WTable); ok {
		pl.buf.Put(t.data)
		t.data = nil
		pl.wtables.Put(t)
		return
	}
	w.data = nil
}

// InWindow reports whether the cell is stored.
func (w *WTableOf[T]) InWindow(i1, j1, i2, j2 int) bool {
	return j1-i1 < w.W1 && j2-i2 < w.W2
}

// Block returns the storage of inner triangle (i1, j1); j1-i1 < W1
// required.
func (w *WTableOf[T]) Block(i1, j1 int) []T {
	o := w.outer.At(i1, j1)
	return w.data[o*w.isize : (o+1)*w.isize : (o+1)*w.isize]
}

// rowHi returns the exclusive upper bound of stored j2 for row i2.
func (w *WTableOf[T]) rowHi(i2 int) int {
	hi := i2 + w.W2
	if hi > w.N2 {
		hi = w.N2
	}
	return hi
}

// Row returns row i2 of a block, indexed by absolute j2 in [i2, rowHi(i2)).
func (w *WTableOf[T]) Row(blk []T, i2 int) []T {
	base := w.rowOff[i2]
	return blk[base : base+w.rowHi(i2)]
}

// At returns F[i1,j1,i2,j2]; the cell must be in-window.
func (w *WTableOf[T]) At(i1, j1, i2, j2 int) T {
	return w.Block(i1, j1)[w.inner.At(i2, j2)]
}

// Bytes returns the storage footprint in bytes.
func (w *WTableOf[T]) Bytes() int64 { return int64(len(w.data)) * elemBytes[T]() }

// wtAt resolves empty-interval base cases like Problem.at, for band tables.
func wtAt(w *WTable, p *Problem, i1, j1, i2, j2 int) float32 {
	if j1 < i1 {
		return p.S2.At(i2, j2)
	}
	if j2 < i2 {
		return p.S1.At(i1, j1)
	}
	return w.At(i1, j1, i2, j2)
}

// SolveWindowed fills the banded table with the hybrid schedule (fine-grain
// rows for R0/R3/R4 across the wavefront, coarse-grain triangles for the
// R1/R2+update pass). It cannot be cancelled; see SolveWindowedContext.
func SolveWindowed(p *Problem, w1, w2 int, cfg Config) *WTable {
	w, err := SolveWindowedContext(context.Background(), p, w1, w2, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// SolveWindowedContext is SolveWindowed with cooperative cancellation and
// panic isolation, mirroring SolveContext: checks sit at row/triangle task
// granularity inside each of the W1 wavefronts, a cancel discards the
// partial band and returns ctx.Err(), and a panic on any worker comes back
// as a *PanicError instead of killing the process.
func SolveWindowedContext(ctx context.Context, p *Problem, w1, w2 int, cfg Config) (wt *WTable, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			wt, err = nil, capturePanic(r)
		}
	}()
	if e := ctx.Err(); e != nil {
		return nil, e
	}
	var w *WTable
	if cfg.Pool != nil {
		w = cfg.Pool.NewWTable(p.N1, p.N2, w1, w2)
	} else {
		w = NewWTable(p.N1, p.N2, w1, w2)
	}
	k := cfg.maxplusKernels()
	acc := k.Accum
	pf := cfg.pforCtx()
	n2 := p.N2

	accumRow := func(i1, j1, i2 int) {
		if h := cfg.triangleHook; h != nil && i2 == 0 {
			h(i1, j1)
		}
		blk := w.Block(i1, j1)
		grow := w.Row(blk, i2)
		hi := w.rowHi(i2)
		k.MulInto(grow[i2:hi], p.S2.Row(i2)[i2:hi], p.S1.At(i1, j1))
		for k1 := i1; k1 < j1; k1++ {
			ablk := w.Block(i1, k1)
			bblk := w.Block(k1+1, j1)
			arow := w.Row(ablk, i2)
			brow := w.Row(bblk, i2)
			acc(grow[i2:hi], arow[i2:hi], p.S1.At(k1+1, j1))
			acc(grow[i2:hi], brow[i2:hi], p.S1.At(i1, k1))
			// Every row below i2 is stored at least as far right as row i2
			// (rowHi never decreases), so the streams all end at hi.
			k.Sweep(grow, arow, bblk, w.rowOff, i2, hi-1, hi)
		}
	}

	finalize := func(i1, j1 int) {
		blk := w.Block(i1, j1)
		sc1 := p.score1(i1, j1)
		s1Self := p.S1.At(i1, j1)
		for i2 := n2 - 1; i2 >= 0; i2-- {
			grow := w.Row(blk, i2)
			hi := w.rowHi(i2)
			k.Sweep(grow, p.S2.Row(i2), blk, w.rowOff, i2, hi-1, hi)
			for j2 := i2; j2 < hi; j2++ {
				v := grow[j2]
				if x := wtAt(w, p, i1+1, j1-1, i2, j2) + sc1; x > v {
					v = x
				}
				if j2 > i2 {
					inner := s1Self
					if j2-1 >= i2+1 {
						inner = w.Row(blk, i2+1)[j2-1]
					}
					if x := inner + p.score2(i2, j2); x > v {
						v = x
					}
				} else if i1 == j1 {
					if x := p.singleton(i1, i2); x > v {
						v = x
					}
				}
				grow[j2] = v
				if j2 < hi-1 {
					acc(grow[j2+1:hi], p.S2.Row(j2 + 1)[j2+1:hi], v)
				}
			}
		}
	}

	obs := cfg.observe(p, "windowed", k.Impl)
	for d1 := 0; d1 < w.W1; d1++ {
		tris := p.N1 - d1
		t0 := obs.start(metrics.PhaseWindowAccum)
		err := pf(ctx, tris*n2, cfg.Workers, func(t int) {
			i1 := t / n2
			accumRow(i1, i1+d1, t%n2)
		})
		if err != nil {
			obs.interrupt(metrics.PhaseWindowAccum, t0)
			w.Release()
			return nil, err
		}
		obs.done(metrics.PhaseWindowAccum, t0, int64(tris*n2))
		t0 = obs.start(metrics.PhaseWindowFinalize)
		err = pf(ctx, tris, cfg.Workers, func(i1 int) {
			finalize(i1, i1+d1)
		})
		if err != nil {
			obs.interrupt(metrics.PhaseWindowFinalize, t0)
			w.Release()
			return nil, err
		}
		obs.done(metrics.PhaseWindowFinalize, t0, int64(tris))
		obs.wavefront()
	}
	return w, nil
}

// Best returns the maximum interaction score over all in-window interval
// pairs and one cell achieving it — the "best local interaction" a
// windowed screen reports.
func (w *WTableOf[T]) Best() (v T, i1, j1, i2, j2 int) {
	v = -1
	for a1 := 0; a1 < w.N1; a1++ {
		for b1 := a1; b1 < w.N1 && b1-a1 < w.W1; b1++ {
			blk := w.Block(a1, b1)
			for a2 := 0; a2 < w.N2; a2++ {
				row := w.Row(blk, a2)
				for b2 := a2; b2 < w.rowHi(a2); b2++ {
					if row[b2] > v {
						v, i1, j1, i2, j2 = row[b2], a1, b1, a2, b2
					}
				}
			}
		}
	}
	return v, i1, j1, i2, j2
}

// BestWithin is Best restricted to interval pairs with spans j1-i1 < s1 and
// j2-i2 < s2 (additionally to the band itself). It backs BestLocal on folds
// that degraded to the windowed scan.
func (w *WTableOf[T]) BestWithin(s1, s2 int) (v T, i1, j1, i2, j2 int) {
	if s1 > w.W1 {
		s1 = w.W1
	}
	if s2 > w.W2 {
		s2 = w.W2
	}
	v = -1
	for a1 := 0; a1 < w.N1; a1++ {
		for b1 := a1; b1 < w.N1 && b1-a1 < s1; b1++ {
			blk := w.Block(a1, b1)
			for a2 := 0; a2 < w.N2; a2++ {
				row := w.Row(blk, a2)
				hi := a2 + s2
				if rh := w.rowHi(a2); rh < hi {
					hi = rh
				}
				for b2 := a2; b2 < hi; b2++ {
					if row[b2] > v {
						v, i1, j1, i2, j2 = row[b2], a1, b1, a2, b2
					}
				}
			}
		}
	}
	return v, i1, j1, i2, j2
}
