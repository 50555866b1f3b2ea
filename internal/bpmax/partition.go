package bpmax

import (
	"context"
	"fmt"
	"math"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// This file is the BPPart entry point: the BPMax recurrence evaluated in
// the log-sum-exp semiring over float64, with every weight Boltzmann-scaled
// to w/kT. The fill reuses the exact max-plus schedules (solveAlg); only
// the algebra view differs. The result cell F[0,N1-1,0,N2-1] is then LogZ —
// the log of the derivation-weighted interaction ensemble sum. Because the
// BPMax grammar is ambiguous (a structure can have several derivations),
// LogZ upper-bounds the structure-ensemble log-partition function and
// lower-bounds nothing less than the max-plus optimum: lse(a,b) >= max(a,b)
// pointwise gives LogZ >= score/kT by induction, with kT·LogZ → score as
// kT → 0 (the derivation count is finite).

// scalePartition maps a max-plus weight to the log-Boltzmann domain:
// forbidden sentinels become a true -Inf (so e^w = 0 exactly, rather than a
// large-but-finite spurious weight), everything else w/kT.
func scalePartition(w float32, kT float64) float64 {
	if w <= semiring.NegInf/2 {
		return math.Inf(-1)
	}
	return float64(w) / kT
}

// PartitionSub bundles the Boltzmann-scaled inputs of one partition fill:
// the two log-sum-exp single-strand substrate tables and the scaled score
// matrices. It is the float64 counterpart of the Problem's S1/S2/Tab set,
// built per (sequence pair, model, kT) and cacheable by content hash.
type PartitionSub struct {
	KT     float64
	S1, S2 *nussinov.GTable[float64]
	// Sc1, Sc2 are the scaled intramolecular matrices (row-major n×n); Isc
	// the scaled intermolecular matrix (n1×n2). Forbidden pairs are -Inf.
	Sc1, Sc2, Isc []float64
}

// Bytes returns the substrate's storage footprint (tables and matrices).
func (ps *PartitionSub) Bytes() int64 {
	b := ps.S1.Bytes() + ps.S2.Bytes()
	b += int64(len(ps.Sc1)+len(ps.Sc2)+len(ps.Isc)) * 8
	return b
}

// NewPartitionSub scales the problem's score tables by 1/kT (kT must be
// positive and finite). The two S tables are left for BuildPartitionS — or
// for the substrate cache, which installs a strand's table read-only when a
// fold under the same model and kT already built it.
func NewPartitionSub(p *Problem, kT float64) (*PartitionSub, error) {
	if !(kT > 0) || math.IsInf(kT, 1) {
		return nil, fmt.Errorf("bpmax: partition kT must be positive and finite (got %v)", kT)
	}
	n1, n2 := p.N1, p.N2
	ps := &PartitionSub{
		KT:  kT,
		Sc1: make([]float64, n1*n1),
		Sc2: make([]float64, n2*n2),
		Isc: make([]float64, n1*n2),
	}
	for i, w := range p.Tab.Intra1 {
		ps.Sc1[i] = scalePartition(float32(w), kT)
	}
	for i, w := range p.Tab.Intra2 {
		ps.Sc2[i] = scalePartition(float32(w), kT)
	}
	for i, w := range p.Tab.Inter {
		ps.Isc[i] = scalePartition(float32(w), kT)
	}
	return ps, nil
}

// BuildPartitionS fills one strand's log-sum-exp substrate from its scaled
// n×n intramolecular matrix (a PartitionSub's Sc1 or Sc2). The Four-Russians
// fast path never applies here (it is a max-plus block precomputation); the
// classic diagonal schedule is the only rung, which is why the build takes a
// context — it is O(n³) like any substrate fill.
func BuildPartitionS(ctx context.Context, n int, sc []float64) (*nussinov.GTable[float64], error) {
	return nussinov.BuildGContext(ctx, n, semiring.LogSumExpKernels(), func(i, j int) float64 {
		return sc[i*n+j]
	})
}

// BuildPartitionSub is NewPartitionSub plus both single-strand fills.
func BuildPartitionSub(ctx context.Context, p *Problem, kT float64) (*PartitionSub, error) {
	ps, err := NewPartitionSub(p, kT)
	if err != nil {
		return nil, err
	}
	if ps.S1, err = BuildPartitionS(ctx, p.N1, ps.Sc1); err != nil {
		return nil, err
	}
	if ps.S2, err = BuildPartitionS(ctx, p.N2, ps.Sc2); err != nil {
		return nil, err
	}
	return ps, nil
}

// partitionAlg builds the log-sum-exp algebra view over a problem and its
// partition substrate. Pure reslicing, like maxplusAlg.
func partitionAlg(p *Problem, ps *PartitionSub) alg[float64] {
	return alg[float64]{
		k:   semiring.LogSumExpKernels(),
		s1:  ps.S1.Data(),
		s2:  ps.S2.Data(),
		sc1: ps.Sc1,
		sc2: ps.Sc2,
		isc: ps.Isc,
		n1:  p.N1,
		n2:  p.N2,
	}
}

// SolvePartitionContext fills the float64 BPPart table for p under the
// given schedule variant, with the same cancellation and panic-isolation
// contract as SolveContext. LogZ is ft.At(0, p.N1-1, 0, p.N2-1) (use
// PartitionLogZ). Unlike max-plus, results are not bit-identical across
// variants — log-sum-exp is not associative in floating point — but agree
// to tight relative tolerance; the cross-variant tests pin that.
func SolvePartitionContext(ctx context.Context, p *Problem, ps *PartitionSub, v Variant, cfg Config) (ft *FTableOf[float64], err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			ft, err = nil, capturePanic(r)
		}
	}()
	if e := ctx.Err(); e != nil {
		return nil, e
	}
	return solveAlg(ctx, p, partitionAlg(p, ps), v, cfg)
}

// PartitionLogZ reads the whole-pair log-partition value from a filled
// BPPart table.
func PartitionLogZ(p *Problem, f *FTableOf[float64]) float64 {
	return f.At(0, p.N1-1, 0, p.N2-1)
}
