package bpmax

import (
	"context"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// Solve fills the full F table for p with the selected variant and returns
// it. All variants produce bit-identical tables; they differ only in
// schedule, parallelism and locality. Solve cannot be cancelled; a solver
// panic propagates to the caller (as a *PanicError). Long-running or
// fallible callers should prefer SolveContext.
func Solve(p *Problem, v Variant, cfg Config) *FTable {
	f, err := SolveContext(context.Background(), p, v, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// SolveContext is Solve with cooperative cancellation and fault isolation.
//
// Cancellation checks sit at the granularity of the schedule's unit of
// work — one triangle for the coarse schedule, one accumulation row or row
// tile for the fine/hybrid/hybrid-tiled schedules, one triangle-row of a
// wavefront for the base schedule — so a cancel returns after at most one
// in-flight unit per worker finishes (milliseconds, even on large
// problems). The partially filled table is discarded: on error the returned
// table is nil.
//
// Any panic raised while filling — on a parallel worker or on the calling
// goroutine — is recovered and returned as a *PanicError carrying the
// panicking goroutine's stack; no goroutine leaks either way.
// (VariantReference, the test/debug oracle, only honors ctx between
// top-level cells.)
func SolveContext(ctx context.Context, p *Problem, v Variant, cfg Config) (ft *FTable, err error) {
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
	switch v {
	case VariantReference:
		return solveReference(p, cfg.Map), nil
	case VariantBase:
		return solveBase(ctx, p, cfg)
	case VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled:
		return solveAlg(ctx, p, maxplusAlg(p, cfg), v, cfg)
	}
	return nil, fmt.Errorf("bpmax: unknown variant %d", int(v))
}

// solveAlg dispatches the optimized schedules over an arbitrary scalar
// semiring; the max-plus SolveContext and the partition solver both route
// through it. Reference and base run their generic twins (the float32
// instantiations of those two stay on the hand-written bodies above for
// oracle hygiene). Panic recovery is the caller's job.
func solveAlg[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], v Variant, cfg Config) (*FTableOf[T], error) {
	switch v {
	case VariantReference:
		return solveReferenceG(p, a, cfg.Map), nil
	case VariantBase:
		return solveBaseG(ctx, p, a, cfg)
	case VariantCoarse:
		return solveCoarseG(ctx, p, a, cfg)
	case VariantFine:
		return solveFineG(ctx, p, a, cfg)
	case VariantHybrid:
		return solveHybridG(ctx, p, a, cfg)
	case VariantHybridTiled:
		return solveHybridTiledG(ctx, p, a, cfg)
	}
	return nil, fmt.Errorf("bpmax: unknown variant %d", int(v))
}

// Score returns the interaction score of the whole pair,
// F[0, N1-1, 0, N2-1], for an already-filled table.
func (p *Problem) Score(f *FTable) float32 {
	return f.At(0, p.N1-1, 0, p.N2-1)
}

// TriangleComputer fills an FTable one inner triangle at a time, exposing
// the wavefront structure to external drivers (the cluster-distribution
// simulation). The caller must respect the dependence order: triangle
// (i1, j1) may be computed only after every (i1, k1) and (k1+1, j1) with
// i1 <= k1 < j1.
type TriangleComputer struct {
	s *solver
}

// NewTriangleComputer allocates the table and solver state.
func NewTriangleComputer(p *Problem, cfg Config) *TriangleComputer {
	return &TriangleComputer{s: newSolver(p, cfg, cfg.Map)}
}

// Table returns the (partially) filled table.
func (tc *TriangleComputer) Table() *FTable { return tc.s.f }

// Compute fills triangle (i1, j1) sequentially (init, k1 accumulation,
// finalize).
func (tc *TriangleComputer) Compute(i1, j1 int) {
	tc.s.computeTriangleSequential(i1, j1)
}

// TriangleOps returns the max-plus element count of one inner triangle at
// outer span d1 = j1-i1: d1 wavefront-partners for R0/R3/R4 plus the
// R1/R2+cell update pass. It drives the cluster simulation's load model.
func TriangleOps(d1, n2 int) int64 {
	return int64(d1)*(triples(n2)+2*pairs(n2)) + 2*triples(n2) + 2*pairs(n2)
}

// solveCoarseG: for each outer anti-diagonal, the triangles are
// independent; one worker computes one whole triangle (init + k1
// accumulation + finalize). Maximal parallelism, worst locality: each
// worker streams whole west/south triangle blocks from DRAM. Cancellation
// granularity: one triangle.
func solveCoarseG[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], cfg Config) (*FTableOf[T], error) {
	s := newGSolver(p, a, cfg, cfg.Map)
	pf := cfg.pforCtx()
	obs := cfg.observe(p, "coarse", s.a.k.Impl)
	for d1 := 0; d1 < p.N1; d1++ {
		s.curD1 = d1
		t0 := obs.start(metrics.PhaseTriangle)
		if err := pf(ctx, p.N1-d1, cfg.Workers, s.triTask); err != nil {
			obs.interrupt(metrics.PhaseTriangle, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseTriangle, t0, int64(p.N1-d1))
		if err := s.endWavefront(obs); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}

// solveFineG: triangles run one at a time (diagonal order); within the
// current triangle the R0/R3/R4 accumulation is row-parallel, but the
// R1/R2+update pass is inherently serial, so workers idle through it — the
// imbalance the paper observed. Cancellation granularity: one accumulation
// row (the serial finalize pass of one triangle runs to completion).
func solveFineG[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], cfg Config) (*FTableOf[T], error) {
	s := newGSolver(p, a, cfg, cfg.Map)
	pf := cfg.pforCtx()
	obs := cfg.observe(p, "fine", s.a.k.Impl)
	for d1 := 0; d1 < p.N1; d1++ {
		for i1 := 0; i1+d1 < p.N1; i1++ {
			j1 := i1 + d1
			s.curI1, s.curJ1 = i1, j1
			t0 := obs.start(metrics.PhaseAccum)
			if err := pf(ctx, p.N2, cfg.Workers, s.rowFineTask); err != nil {
				obs.interrupt(metrics.PhaseAccum, t0)
				s.abort()
				return nil, err
			}
			obs.done(metrics.PhaseAccum, t0, int64(p.N2))
			t0 = obs.start(metrics.PhaseFinalize)
			s.finalizeBlk(s.f.Block(i1, j1), i1, j1)
			obs.done(metrics.PhaseFinalize, t0, 1)
		}
		if err := s.endWavefront(obs); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}

// solveHybridG: per wavefront, phase A row-parallelizes the R0/R3/R4
// accumulation across *all* triangles of the diagonal (fine-grain), then
// phase B finalizes the triangles coarse-grain in parallel — "the best of
// both worlds". Cancellation granularity: one row task (phase A) or one
// triangle finalize (phase B).
func solveHybridG[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], cfg Config) (*FTableOf[T], error) {
	s := newGSolver(p, a, cfg, cfg.Map)
	if cfg.ScratchAccum {
		return solveHybridScratchG(ctx, p, s, cfg)
	}
	pf := cfg.pforCtx()
	obs := cfg.observe(p, "hybrid", s.a.k.Impl)
	for d1 := 0; d1 < p.N1; d1++ {
		tris := p.N1 - d1
		s.curD1 = d1
		t0 := obs.start(metrics.PhaseAccum)
		if err := pf(ctx, tris*p.N2, cfg.Workers, s.rowAllTask); err != nil {
			obs.interrupt(metrics.PhaseAccum, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseAccum, t0, int64(tris*p.N2))
		t0 = obs.start(metrics.PhaseFinalize)
		if err := pf(ctx, tris, cfg.Workers, s.finTask); err != nil {
			obs.interrupt(metrics.PhaseFinalize, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseFinalize, t0, int64(tris))
		if err := s.endWavefront(obs); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}

// solveHybridScratchG is solveHybridG with the Phase II memory map: the
// accumulation phase writes a scratch table whose blocks are then copied
// into F — reproducing the redundant data movement the paper's Phase III
// memory optimization ("R0, R3 and R4 ... share the memory with F-table")
// eliminated.
func solveHybridScratchG[T semiring.Scalar](ctx context.Context, p *Problem, s *gsolver[T], cfg Config) (*FTableOf[T], error) {
	pf := cfg.pforCtx()
	scratch := newAlgTable(p, &s.a, cfg.Pool, cfg.Map)
	// The scratch table is never returned, so it goes back to the pool on
	// every exit (Release is a no-op when unpooled).
	defer scratch.Release()
	s.scratch = scratch
	obs := cfg.observe(p, "hybrid", s.a.k.Impl)
	for d1 := 0; d1 < p.N1; d1++ {
		tris := p.N1 - d1
		s.curD1 = d1
		// Accumulate into scratch (reads finalized triangles from s.f).
		t0 := obs.start(metrics.PhaseAccum)
		if err := pf(ctx, tris*p.N2, cfg.Workers, s.scratchRowTask); err != nil {
			obs.interrupt(metrics.PhaseAccum, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseAccum, t0, int64(tris*p.N2))
		// Copy scratch blocks into F (the Phase II redundancy), then run
		// the update pass in place.
		t0 = obs.start(metrics.PhaseFinalize)
		if err := pf(ctx, tris, cfg.Workers, s.scratchFinTask); err != nil {
			obs.interrupt(metrics.PhaseFinalize, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseFinalize, t0, int64(tris))
		if err := s.endWavefront(obs); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}

// solveHybridTiledG is solveHybridG with the (i2 × k2 × j2) tiling of the
// double ⊕⊗ reduction; the parallel unit of phase A becomes an i2 tile.
// Cancellation granularity: one row tile or one triangle finalize.
func solveHybridTiledG[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], cfg Config) (*FTableOf[T], error) {
	cfg = cfg.withDefaults()
	s := newGSolver(p, a, cfg, cfg.Map)
	pf := cfg.pforCtx()
	s.curTileW = cfg.TileI2
	s.curTilesPT = (p.N2 + s.curTileW - 1) / s.curTileW
	obs := cfg.observe(p, "hybrid-tiled", s.a.k.Impl)
	for d1 := 0; d1 < p.N1; d1++ {
		tris := p.N1 - d1
		s.curD1 = d1
		t0 := obs.start(metrics.PhaseAccum)
		if err := pf(ctx, tris*s.curTilesPT, cfg.Workers, s.tileTask); err != nil {
			obs.interrupt(metrics.PhaseAccum, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseAccum, t0, int64(tris*s.curTilesPT))
		t0 = obs.start(metrics.PhaseFinalize)
		if err := pf(ctx, tris, cfg.Workers, s.finTask); err != nil {
			obs.interrupt(metrics.PhaseFinalize, t0)
			s.abort()
			return nil, err
		}
		obs.done(metrics.PhaseFinalize, t0, int64(tris))
		if err := s.endWavefront(obs); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}
