package bpmax

import "context"

// SolveWindowed fills the banded table of a windowed scan. It cannot be
// cancelled; see SolveWindowedContext.
func SolveWindowed(p *Problem, w1, w2 int, cfg Config) *FTable {
	f, err := SolveWindowedContext(context.Background(), p, w1, w2, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// SolveWindowedContext computes only the cells with j1-i1 < w1 and
// j2-i2 < w2 (windows clamped to the sequence lengths): the hybrid schedule
// over a band-shaped table on the packed map, cut off after w1 wavefronts.
// Cancellation, panic isolation and the exact range are SolveContext's (the
// range over the whole problem, N1+N2 bases). The fill is max-plus
// only — the partition algebra never takes the windowed degradation rung
// (its answer is a global sum, which a band cannot represent).
func SolveWindowedContext(ctx context.Context, p *Problem, w1, w2 int, cfg Config) (ft *FTable, err error) {
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
	// The band's budget (EstimateWindowedBytes) is one packed table: no box
	// padding.
	cfg.Map = MapPacked
	return newSolver(p, cfg, w1, w2).fill(ctx, VariantHybrid, "windowed")
}
