package bpmax

import (
	"context"

	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// solveBase is the original BPMax program's implementation: the
// (j1-i1, j2-i2, i1, i2, k1, k2) schedule, one cell at a time, with every
// reduction performed as a per-cell gather (k2 innermost, defeating
// streaming) and no parallelism. It is the 1× baseline of Figures 15/16.
// Cancellation is checked once per (d1, d2, i1) triangle-row — the largest
// such unit costs O(N2·d1·d2) gathered elements, small enough that a cancel
// returns promptly even on large problems.
func solveBase(ctx context.Context, p *Problem, cfg Config) (*FTable, error) {
	f := newTable[float32](cfg.Pool, p.N1, p.N2, p.N1, p.N2, cfg.Map, false)
	n1, n2 := p.N1, p.N2
	done := ctx.Done()
	obs := cfg.observe(p, "base", "go") // per-cell gathers: no streaming kernel
	for d1 := 0; d1 < n1; d1++ {
		// The base schedule has no phase structure; one span per outer
		// anti-diagonal keeps its timing comparable to the other schedules.
		t0 := obs.start()
		for d2 := 0; d2 < n2; d2++ {
			for i1 := 0; i1+d1 < n1; i1++ {
				select {
				case <-done:
					obs.interrupt(metrics.PhaseTriangle, t0)
					f.Release()
					return nil, ctx.Err()
				default:
				}
				j1 := i1 + d1
				if h := cfg.triangleHook; h != nil && d2 == 0 {
					h(i1, j1)
				}
				blk := f.Block(i1, j1)
				for i2 := 0; i2+d2 < n2; i2++ {
					j2 := i2 + d2
					blk[f.Inner.At(i2, j2)] = p.baseCell(f, i1, j1, i2, j2)
				}
			}
		}
		obs.done(metrics.PhaseTriangle, t0, int64(n1-d1))
		obs.wavefront()
	}
	return f, nil
}

// baseCell evaluates the full recurrence body for one cell by gathering.
// All cells it reads are strictly shorter in (d1, d2) lexicographic order,
// which the solveBase loop nest guarantees. Every candidate is a pairwise
// sum of table entries, identical to the oracle's, so results are
// bit-exact across variants.
func (p *Problem) baseCell(f *FTable, i1, j1, i2, j2 int) float32 {
	if i1 == j1 && i2 == j2 {
		return p.singleton(i1, i2)
	}
	// Pair i1-j1.
	v := p.at(f, i1+1, j1-1, i2, j2) + p.score1(i1, j1)
	// Pair i2-j2.
	if w := p.at(f, i1, j1, i2+1, j2-1) + p.score2(i2, j2); w > v {
		v = w
	}
	// H: independent folds.
	if w := p.S1.At(i1, j1) + p.S2.At(i2, j2); w > v {
		v = w
	}
	// R0 (double max-plus), k2 innermost: the strided gather the paper's
	// loop-permutation analysis rejects.
	for k1 := i1; k1 < j1; k1++ {
		ablk := f.Block(i1, k1)
		bblk := f.Block(k1+1, j1)
		for k2 := i2; k2 < j2; k2++ {
			if w := ablk[f.Inner.At(i2, k2)] + bblk[f.Inner.At(k2+1, j2)]; w > v {
				v = w
			}
		}
	}
	// R1 and R2.
	blk := f.Block(i1, j1)
	for k2 := i2; k2 < j2; k2++ {
		if w := p.S2.At(i2, k2) + blk[f.Inner.At(k2+1, j2)]; w > v {
			v = w
		}
		if w := blk[f.Inner.At(i2, k2)] + p.S2.At(k2+1, j2); w > v {
			v = w
		}
	}
	// R3 and R4.
	for k1 := i1; k1 < j1; k1++ {
		if w := p.S1.At(i1, k1) + f.Block(k1+1, j1)[f.Inner.At(i2, j2)]; w > v {
			v = w
		}
		if w := f.Block(i1, k1)[f.Inner.At(i2, j2)] + p.S1.At(k1+1, j1); w > v {
			v = w
		}
	}
	return v
}

// atG resolves the recurrence's empty-interval base cases over an arbitrary
// algebra view — the generic counterpart of Problem.at. j1 < i1 (empty seq1
// interval) yields S²[i2,j2]; j2 < i2 yields S¹[i1,j1].
func atG[T semiring.Scalar](f *FTableOf[T], a *alg[T], i1, j1, i2, j2 int) T {
	if j1 < i1 {
		return a.s2At(i2, j2)
	}
	if j2 < i2 {
		return a.s1At(i1, j1)
	}
	return f.At(i1, j1, i2, j2)
}

// solveBaseG is solveBase over an arbitrary scalar semiring: the same
// (d1, d2, i1, i2) schedule with every candidate folded in through ⊕.
// The float32 max-plus path keeps the concrete solveBase above; this twin
// serves the other algebras (and the cross-algebra variant tests).
func solveBaseG[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], cfg Config) (*FTableOf[T], error) {
	f := newAlgTable(p, &a, cfg.Pool, p.N1, p.N2, cfg.Map, false)
	n1, n2 := p.N1, p.N2
	done := ctx.Done()
	obs := cfg.observe(p, "base", "go") // per-cell gathers: no streaming kernel
	for d1 := 0; d1 < n1; d1++ {
		t0 := obs.start()
		for d2 := 0; d2 < n2; d2++ {
			for i1 := 0; i1+d1 < n1; i1++ {
				select {
				case <-done:
					obs.interrupt(metrics.PhaseTriangle, t0)
					f.Release()
					return nil, ctx.Err()
				default:
				}
				j1 := i1 + d1
				if h := cfg.triangleHook; h != nil && d2 == 0 {
					h(i1, j1)
				}
				blk := f.Block(i1, j1)
				for i2 := 0; i2+d2 < n2; i2++ {
					j2 := i2 + d2
					blk[f.Inner.At(i2, j2)] = baseCellG(f, &a, i1, j1, i2, j2)
				}
			}
		}
		obs.done(metrics.PhaseTriangle, t0, int64(n1-d1))
		obs.wavefront()
	}
	return f, nil
}

// baseCellG is baseCell over an arbitrary algebra view: the identical
// candidate set in the identical order, gathered per cell with ⊕ and ⊗
// through the kernel bundle.
func baseCellG[T semiring.Scalar](f *FTableOf[T], a *alg[T], i1, j1, i2, j2 int) T {
	if i1 == j1 && i2 == j2 {
		return a.singleton(i1, i2)
	}
	add, mul := a.k.Add, a.k.Mul
	// Pair i1-j1.
	v := mul(atG(f, a, i1+1, j1-1, i2, j2), a.score1(i1, j1))
	// Pair i2-j2.
	v = add(mul(atG(f, a, i1, j1, i2+1, j2-1), a.score2(i2, j2)), v)
	// H: independent folds.
	v = add(mul(a.s1At(i1, j1), a.s2At(i2, j2)), v)
	// R0 (double split), k2 innermost per-cell gather.
	for k1 := i1; k1 < j1; k1++ {
		ablk := f.Block(i1, k1)
		bblk := f.Block(k1+1, j1)
		for k2 := i2; k2 < j2; k2++ {
			v = add(mul(ablk[f.Inner.At(i2, k2)], bblk[f.Inner.At(k2+1, j2)]), v)
		}
	}
	// R1 and R2.
	blk := f.Block(i1, j1)
	for k2 := i2; k2 < j2; k2++ {
		v = add(mul(a.s2At(i2, k2), blk[f.Inner.At(k2+1, j2)]), v)
		v = add(mul(blk[f.Inner.At(i2, k2)], a.s2At(k2+1, j2)), v)
	}
	// R3 and R4.
	for k1 := i1; k1 < j1; k1++ {
		v = add(mul(a.s1At(i1, k1), f.Block(k1+1, j1)[f.Inner.At(i2, j2)]), v)
		v = add(mul(f.Block(i1, k1)[f.Inner.At(i2, j2)], a.s1At(k1+1, j1)), v)
	}
	return v
}
