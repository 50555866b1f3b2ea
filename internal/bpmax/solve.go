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
// panic propagates to the caller (as a *PanicError), and so does the refusal
// of a problem outside the exact range. Long-running or fallible callers
// should prefer SolveContext.
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
// top-level cells.) A problem whose max-plus sums can round in float32
// (score.Grid.Exact) is refused before any table is allocated.
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
	if e := p.exact(); e != nil {
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

// solveAlg dispatches a full-table fill over an arbitrary scalar semiring;
// the max-plus SolveContext and the partition solver both route through it.
// Reference and base run their generic twins (the float32 instantiations of
// those two stay on the hand-written bodies above for oracle hygiene); the
// streamed schedules run fill on the W = N band. Panic recovery is the
// caller's job.
func solveAlg[T semiring.Scalar](ctx context.Context, p *Problem, a alg[T], v Variant, cfg Config) (*FTableOf[T], error) {
	switch v {
	case VariantReference:
		return solveReferenceG(p, a, cfg.Map), nil
	case VariantBase:
		return solveBaseG(ctx, p, a, cfg)
	case VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled:
		return newGSolver(p, a, cfg, p.N1, p.N2, true).fill(ctx, v, v.String())
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

// NewTriangleComputer allocates the table and solver state. It panics on a
// problem outside the exact range, which SolveContext refuses.
func NewTriangleComputer(p *Problem, cfg Config) *TriangleComputer {
	if err := p.exact(); err != nil {
		panic(err)
	}
	return &TriangleComputer{s: newSolver(p, cfg, p.N1, p.N2)}
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

// step is one loop of a schedule's wavefront: the phase it reports under,
// its task count per triangle (the loop runs that many tasks for each
// triangle it covers) and the solver's hoisted task closure. An inline step
// is one task on the coordinating goroutine, outside the parallel runtime.
type step struct {
	phase  metrics.Phase
	per    int
	task   func(t int)
	inline bool
}

// fill runs variant v's schedule over the solver's table and hands the
// table over. Each schedule is a step list for the one wavefront driver:
//
//   - coarse: the triangles of an outer anti-diagonal are independent; one
//     task computes one whole triangle (init + k1 accumulation + finalize).
//     Maximal parallelism, worst locality: each worker streams whole
//     west/south triangle blocks from DRAM.
//   - fine: triangles run one at a time; within the current triangle the
//     R0/R3/R4 accumulation is row-parallel, but the R1/R2+update pass is
//     inherently serial, so workers idle through it — the imbalance the
//     paper observed.
//   - hybrid: phase A row-parallelizes the accumulation across *all*
//     triangles of the diagonal (fine-grain), then phase B finalizes the
//     triangles coarse-grain in parallel — "the best of both worlds". Its
//     accumulators share F's storage (the paper's Phase III map: "R0, R3
//     and R4 ... share the memory with F-table").
//   - hybrid-tiled: hybrid with the (i2 × k2 × j2) tiling of the double ⊕⊗
//     reduction; the parallel unit of phase A becomes an i2 tile.
//
// schedule names the fill in metrics: the variant, or "windowed" for a
// banded scan.
func (s *gsolver[T]) fill(ctx context.Context, v Variant, schedule string) (*FTableOf[T], error) {
	n2 := s.p.N2
	switch v {
	case VariantCoarse:
		return s.run(ctx, schedule, false, step{phase: metrics.PhaseTriangle, per: 1, task: s.triTask})
	case VariantFine:
		return s.run(ctx, schedule, true,
			step{phase: metrics.PhaseAccum, per: n2, task: s.rowFineTask},
			step{phase: metrics.PhaseFinalize, per: 1, task: s.finTask, inline: true})
	case VariantHybrid:
		return s.run(ctx, schedule, false,
			step{phase: metrics.PhaseAccum, per: n2, task: s.rowAllTask},
			step{phase: metrics.PhaseFinalize, per: 1, task: s.finTask})
	case VariantHybridTiled:
		s.curTileW = s.cfg.TileI2
		s.curTilesPT = (n2 + s.curTileW - 1) / s.curTileW
		return s.run(ctx, schedule, false,
			step{phase: metrics.PhaseAccum, per: s.curTilesPT, task: s.tileTask},
			step{phase: metrics.PhaseFinalize, per: 1, task: s.finTask})
	}
	panic(fmt.Sprintf("bpmax: variant %d has no streamed schedule", int(v)))
}

// run is the wavefront driver every streamed schedule shares: for each outer
// anti-diagonal d1 inside the band it runs the steps in order — once over
// all the wavefront's triangles, or, with serial set (the fine schedule),
// once per triangle — and owns the span, cancellation and range-guard
// handling. Cancellation granularity is one task; an inline step runs to
// completion. On an error (a cancel, a worker panic, an injected fault, a
// tripped range guard) the table is discarded. The guard is polled between
// wavefronts: stopping there rather than at the end of the fill keeps a
// doomed scaled fill from grinding through denormals. A fill asking for
// width > 1 with no engine configured runs on one scoped to this call.
func (s *gsolver[T]) run(ctx context.Context, schedule string, serial bool, steps ...step) (*FTableOf[T], error) {
	cfg, release := s.cfg.ScopedEngine(s.cfg.Workers)
	defer release()
	obs := s.cfg.observe(s.p, schedule, s.a.k.Impl)
	var err error
wavefronts:
	for d1 := 0; d1 < s.f.W1; d1++ {
		s.curD1 = d1
		rounds, tris := 1, s.p.N1-d1
		if serial {
			rounds, tris = tris, 1
		}
		for r := 0; r < rounds; r++ {
			s.curI1 = r
			for _, st := range steps {
				n := tris * st.per
				t0 := obs.start()
				if st.inline {
					st.task(r)
				} else if err = cfg.Engine.Run(ctx, n, s.cfg.Workers, st.task); err != nil {
					obs.interrupt(st.phase, t0)
					break wavefronts
				}
				obs.done(st.phase, t0, int64(n))
			}
		}
		obs.wavefront()
		if s.tripped.Load() {
			err = errScaledRange
			break
		}
	}
	if err != nil {
		s.abort()
		return nil, err
	}
	return s.finish(), nil
}
