package harness

import (
	"context"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/perf"
)

func init() {
	register(Experiment{
		ID: "ext-partition", Title: "BPPart partition fill vs max-plus", PaperRef: "Section I (BPPart companion algorithm)",
		Run: runExtPartition,
	})
}

// partitionSlowdownLimit bounds what the partition algebra may cost: at most
// this many max-plus folds of the same shape run on the same kind of kernel —
// the portable Go loops, which is what the float64 partition kernels are.
// Measured against the vector max-plus fill the ratio would move with every
// max-plus kernel change and say nothing about the partition fill; the
// partition time itself is a benchgate row ("partition time"). Asserted at
// 8×64, the shape the committed baseline gates.
const partitionSlowdownLimit = 4.0

// runExtPartition times the same hybrid-tiled schedule under both algebras —
// the float32 max-plus fill and the float64 BPPart fill (scaled sum-product,
// one multiply-add per candidate) with its substrate build — on every
// configured size, and checks two things on each: the semiring ordering
// LogZ >= score/kT (a sum of non-negative terms is at least its largest, so
// the inequality holds by induction; a violation means the generic fill
// broke), and that the scaled domain — not its log-domain fallback — served
// the fold. The slowdown column is the cost of the partition mode as served:
// wider cells, scalar kernels and no Four-Russians fast path, against the
// max-plus fill on whatever kernels this process has.
func runExtPartition(cfg RunConfig) *Table {
	t := &Table{
		ID: "ext-partition", Title: "BPPart partition fill vs max-plus", PaperRef: "Section I (BPPart companion algorithm)",
		Header: []string{"N1xN2", "maxplus time", "partition time", "slowdown", "logZ", "score/kT"},
	}
	const kT = 1.0
	ctx := context.Background()
	c := bpmax.Config{Workers: cfg.Workers}
	cGo := c
	cGo.SetGoKernels(true)
	for _, sz := range cfg.sizes() {
		p := newProblem(cfg.Seed+int64(sz[1]), sz[0], sz[1])
		mp := timeBPMax(p, bpmax.VariantHybridTiled, c, cfg.repeats())
		score := float64(p.Score(bpmax.Solve(p, bpmax.VariantHybridTiled, c)))
		var logZ float64
		// The partition window times the whole cold path — substrate scaling
		// and single-strand fills plus the pair fill — because that is what a
		// cache-miss partition request costs the server.
		pt := perf.Best(cfg.repeats(), bpmax.BPMaxFlops(sz[0], sz[1]), func() {
			ps, err := bpmax.BuildPartitionSub(ctx, p, kT)
			if err != nil {
				panic(err)
			}
			f, err := bpmax.SolvePartitionContext(ctx, p, ps, bpmax.VariantHybridTiled, c)
			if err != nil {
				panic(err)
			}
			if !f.Scaled() {
				panic(fmt.Sprintf("harness: partition fold at %dx%d fell back to the log domain", sz[0], sz[1]))
			}
			logZ = bpmax.PartitionLogZ(p, f)
		})
		// Ensemble >= MFE: lse accumulates at least the optimal derivation.
		if bound := score / kT; logZ < bound-1e-6*(1+abs(bound)) {
			panic(fmt.Sprintf("harness: partition logZ %.9g < score/kT %.9g at %dx%d", logZ, bound, sz[0], sz[1]))
		}
		slowdown := perf.Speedup(pt.Elapsed, mp.Elapsed)
		if sz == [2]int{8, 64} {
			mpGo := timeBPMax(p, bpmax.VariantHybridTiled, cGo, cfg.repeats())
			if r := perf.Speedup(pt.Elapsed, mpGo.Elapsed); r > partitionSlowdownLimit {
				panic(fmt.Sprintf("harness: partition fold is %.2fx the pure-Go max-plus fold at 8x64 (limit %gx)", r, partitionSlowdownLimit))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", sz[0], sz[1]),
			d2(mp.Elapsed),
			d2(pt.Elapsed),
			f2(slowdown) + "x",
			f2(logZ),
			f2(score / kT),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("kT=%g; partition time includes the Boltzmann substrate build (the server caches it per strand)", kT),
		"logZ >= score/kT and a scaled-domain (not fallback) fill verified on every measured size",
		fmt.Sprintf("partition time <= %gx the max-plus fill on the portable Go kernels asserted at 8x64; the slowdown column is against the kernels in use", partitionSlowdownLimit))
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
