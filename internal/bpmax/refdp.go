package bpmax

import (
	"github.com/bpmax-go/bpmax/internal/semiring"
	"github.com/bpmax-go/bpmax/internal/tri"
)

// refDP is the deliberately simple top-down memoized implementation of
// Equations 1–3. It is the correctness oracle: every optimized variant in
// this package must agree with it bit-for-bit (all candidate values are
// pairwise sums of the same table entries, so there is no float
// reassociation anywhere and exact equality is the right test).
type refDP struct {
	p     *Problem
	memo  []float32
	known []bool
}

func newRefDP(p *Problem) *refDP {
	cells := tri.Count(p.N1) * tri.Count(p.N2)
	return &refDP{
		p:     p,
		memo:  make([]float32, cells),
		known: make([]bool, cells),
	}
}

func (r *refDP) idx(i1, j1, i2, j2 int) int {
	return tri.Index(i1, j1, r.p.N1)*tri.Count(r.p.N2) + tri.Index(i2, j2, r.p.N2)
}

// f evaluates F[i1,j1,i2,j2] including the empty-interval base cases.
func (r *refDP) f(i1, j1, i2, j2 int) float32 {
	p := r.p
	if j1 < i1 {
		return p.S2.At(i2, j2)
	}
	if j2 < i2 {
		return p.S1.At(i1, j1)
	}
	id := r.idx(i1, j1, i2, j2)
	if r.known[id] {
		return r.memo[id]
	}
	var v float32
	if i1 == j1 && i2 == j2 {
		v = p.singleton(i1, i2)
	} else {
		// Pair i1-j1 around the whole seq2 interval.
		v = r.f(i1+1, j1-1, i2, j2) + p.score1(i1, j1)
		// Pair i2-j2 around the whole seq1 interval.
		if w := r.f(i1, j1, i2+1, j2-1) + p.score2(i2, j2); w > v {
			v = w
		}
		// H term 1: the two intervals fold independently.
		if w := p.S1.At(i1, j1) + p.S2.At(i2, j2); w > v {
			v = w
		}
		// R0: double split (Equation 4).
		for k1 := i1; k1 < j1; k1++ {
			for k2 := i2; k2 < j2; k2++ {
				if w := r.f(i1, k1, i2, k2) + r.f(k1+1, j1, k2+1, j2); w > v {
					v = w
				}
			}
		}
		// R1: seq2 prefix folds alone.
		for k2 := i2; k2 < j2; k2++ {
			if w := p.S2.At(i2, k2) + r.f(i1, j1, k2+1, j2); w > v {
				v = w
			}
		}
		// R2: seq2 suffix folds alone.
		for k2 := i2; k2 < j2; k2++ {
			if w := r.f(i1, j1, i2, k2) + p.S2.At(k2+1, j2); w > v {
				v = w
			}
		}
		// R3: seq1 prefix folds alone.
		for k1 := i1; k1 < j1; k1++ {
			if w := p.S1.At(i1, k1) + r.f(k1+1, j1, i2, j2); w > v {
				v = w
			}
		}
		// R4: seq1 suffix folds alone.
		for k1 := i1; k1 < j1; k1++ {
			if w := r.f(i1, k1, i2, j2) + p.S1.At(k1+1, j1); w > v {
				v = w
			}
		}
	}
	r.memo[id] = v
	r.known[id] = true
	return v
}

// solveReference fills a complete FTable through the oracle.
func solveReference(p *Problem, kind MapKind) *FTable {
	r := newRefDP(p)
	f := NewFTable(p.N1, p.N2, kind)
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					f.Set(i1, j1, i2, j2, r.f(i1, j1, i2, j2))
				}
			}
		}
	}
	return f
}

// refDPG is refDP over an arbitrary algebra view: the identical candidate
// set in the identical order, ⊕ and ⊗ through the kernel bundle. It is the
// oracle for the non-max-plus algebras (the float32
// max-plus oracle above stays hand-written and untouched by the generics).
type refDPG[T semiring.Scalar] struct {
	a     *alg[T]
	memo  []T
	known []bool
}

func newRefDPG[T semiring.Scalar](a *alg[T]) *refDPG[T] {
	cells := tri.Count(a.n1) * tri.Count(a.n2)
	return &refDPG[T]{
		a:     a,
		memo:  make([]T, cells),
		known: make([]bool, cells),
	}
}

func (r *refDPG[T]) idx(i1, j1, i2, j2 int) int {
	return tri.Index(i1, j1, r.a.n1)*tri.Count(r.a.n2) + tri.Index(i2, j2, r.a.n2)
}

func (r *refDPG[T]) f(i1, j1, i2, j2 int) T {
	a := r.a
	if j1 < i1 {
		return a.s2At(i2, j2)
	}
	if j2 < i2 {
		return a.s1At(i1, j1)
	}
	id := r.idx(i1, j1, i2, j2)
	if r.known[id] {
		return r.memo[id]
	}
	add, mul := a.k.Add, a.k.Mul
	var v T
	if i1 == j1 && i2 == j2 {
		v = a.singleton(i1, i2)
	} else {
		// Pair i1-j1 around the whole seq2 interval.
		v = mul(r.f(i1+1, j1-1, i2, j2), a.score1(i1, j1))
		// Pair i2-j2 around the whole seq1 interval.
		v = add(mul(r.f(i1, j1, i2+1, j2-1), a.score2(i2, j2)), v)
		// H term: the two intervals fold independently.
		v = add(mul(a.s1At(i1, j1), a.s2At(i2, j2)), v)
		// R0: double split.
		for k1 := i1; k1 < j1; k1++ {
			for k2 := i2; k2 < j2; k2++ {
				v = add(mul(r.f(i1, k1, i2, k2), r.f(k1+1, j1, k2+1, j2)), v)
			}
		}
		// R1: seq2 prefix folds alone.
		for k2 := i2; k2 < j2; k2++ {
			v = add(mul(a.s2At(i2, k2), r.f(i1, j1, k2+1, j2)), v)
		}
		// R2: seq2 suffix folds alone.
		for k2 := i2; k2 < j2; k2++ {
			v = add(mul(r.f(i1, j1, i2, k2), a.s2At(k2+1, j2)), v)
		}
		// R3: seq1 prefix folds alone.
		for k1 := i1; k1 < j1; k1++ {
			v = add(mul(a.s1At(i1, k1), r.f(k1+1, j1, i2, j2)), v)
		}
		// R4: seq1 suffix folds alone.
		for k1 := i1; k1 < j1; k1++ {
			v = add(mul(r.f(i1, k1, i2, j2), a.s1At(k1+1, j1)), v)
		}
	}
	r.memo[id] = v
	r.known[id] = true
	return v
}

// solveReferenceG fills a complete table through the generic oracle.
func solveReferenceG[T semiring.Scalar](p *Problem, a alg[T], kind MapKind) *FTableOf[T] {
	r := newRefDPG(&a)
	f := newAlgTable(p, &a, nil, p.N1, p.N2, kind, false)
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					f.Set(i1, j1, i2, j2, r.f(i1, j1, i2, j2))
				}
			}
		}
	}
	return f
}
