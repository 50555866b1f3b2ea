package bpmax

import (
	"math"

	"github.com/bpmax-go/bpmax/internal/semiring"
)

// domain says how a table's stored cells map onto the values the recurrence
// defines. The zero value is the identity: cells are the values themselves
// (max-plus scores, or log-partition values in the log-sum-exp semiring). A
// scaled domain stores a linear ensemble sum damped per nucleotide,
//
//	stored[i1,j1,i2,j2] = F · exp(-sig1·(j1-i1+1) - sig2·(j2-i2+1)),
//
// which is what lets the sum-product fill run in plain float64 where the
// unscaled sums would overflow. Every term of the recurrence is
// length-additive in both strands, so the damping never shows inside the
// fill: it sits in the inputs (scaled substrate tables and pair weights) and
// in the one conversion readers go through (FTableOf.LogAt).
type domain struct {
	scaled     bool
	sig1, sig2 float64
}

// logOf converts a stored cell spanning len1 × len2 nucleotides to the log
// of the value it stands for.
func (d domain) logOf(stored float64, len1, len2 int) float64 {
	if !d.scaled {
		return stored
	}
	return math.Log(stored) + d.sig1*float64(len1) + d.sig2*float64(len2)
}

// alg is the solver's per-solve view of one scalar semiring: the streaming
// kernels plus the problem's score and substrate tables already expressed
// in the semiring's scalar and ⊗ scale. The generic fill never touches
// Problem's float32 tables directly — it reads these slices — so the same
// schedule code serves (max, +) over float32, log-sum-exp over float64 and
// the scaled sum-product over float64. Both ⊕ and ⊗ come from the kernel
// bundle; the element types are constrained to semiring.Scalar.
//
// An alg is a value type: slices reference the owner's storage (Problem
// tables for max-plus, PartitionSub tables for the partition semirings), so
// building one allocates nothing.
type alg[T semiring.Scalar] struct {
	k semiring.Kernels[T]
	// dom is the domain the filled table's cells are stored in; a scaled
	// domain also arms the fill's range guard (see finalize).
	dom domain
	// s1, s2 are the single-strand substrate tables, row-major n-column
	// bounding boxes with row r at s1[r*p1:] and s2[r*p2:] — nussinov.GTable's
	// layout, pitch included. Only cells with i <= j are read.
	s1, s2 []T
	p1, p2 int
	// sc1, sc2 are the intramolecular pair scores (row-major n×n); isc the
	// intermolecular matrix (n1×n2). All in ⊗ scale: raw weights for
	// max-plus, w/kT (forbidden ⇒ -Inf) for log-sum-exp, damped Boltzmann
	// factors (forbidden ⇒ 0) for the scaled sum-product.
	sc1, sc2, isc []T
	n1, n2        int
	// star is what finalize sweeps R2 against, one sweep a row (pitch p2):
	// S² for max-plus, strand 2's star table (fillStar) for partition.
	star []T
}

// maxplusAlg builds the tropical float32 view over a problem's own tables.
// Pure reslicing: safe to call per solve on the pooled hot path.
func maxplusAlg(p *Problem, cfg Config) alg[float32] {
	return alg[float32]{
		k:    cfg.maxplusKernels(),
		s1:   p.S1.Data(),
		s2:   p.S2.Data(),
		p1:   p.S1.Pitch(),
		p2:   p.S2.Pitch(),
		sc1:  p.Tab.Intra1,
		sc2:  p.Tab.Intra2,
		isc:  p.Tab.Inter,
		n1:   p.N1,
		n2:   p.N2,
		star: p.S2.Data(), // every sum exact (Problem.exact), S² is its own star
	}
}

// s1At returns S¹[i,j]; empty intervals (j < i) are One.
func (a *alg[T]) s1At(i, j int) T {
	if j < i {
		return a.k.One
	}
	return a.s1[i*a.p1+j]
}

// s2At returns S²[i,j]; see s1At.
func (a *alg[T]) s2At(i, j int) T {
	if j < i {
		return a.k.One
	}
	return a.s2[i*a.p2+j]
}

// s2Row returns row i of S² (indexed by absolute j).
func (a *alg[T]) s2Row(i int) []T { return a.s2[i*a.p2 : i*a.p2+a.n2] }

// score1 is the intramolecular pair weight for seq1 positions (i, j).
func (a *alg[T]) score1(i, j int) T { return a.sc1[i*a.n1+j] }

// score2 is the intramolecular pair weight for seq2 positions (i, j).
func (a *alg[T]) score2(i, j int) T { return a.sc2[i*a.n2+j] }

// singleton returns the base case F[i,i,k,k]: the two single bases either
// bond intermolecularly or stay unpaired, iscore(i,k) ⊕ S¹[i,i] ⊗ S²[k,k].
// An unpaired base weighs One in the unscaled semirings, so for max-plus
// this is max(0, iscore) and for log-sum-exp log(1 + e^{w/kT}).
func (a *alg[T]) singleton(i1, i2 int) T {
	return a.k.Add(a.isc[i1*a.n2+i2], a.k.Mul(a.s1At(i1, i1), a.s2At(i2, i2)))
}

// inter returns the raw intermolecular bond weight iscore(i1, i2) — the
// singleton candidate WITHOUT the ⊕ One alternative. The streamed schedules
// need this form: their H seed already contributes One (both bases
// unpaired) to every singleton cell, so folding in singleton() instead
// would count the empty derivation twice — invisible under max (One ⊕ One =
// One) but wrong under any summing ⊕.
func (a *alg[T]) inter(i1, i2 int) T { return a.isc[i1*a.n2+i2] }
