package bpmax

// One testing.B benchmark per paper artifact (see DESIGN.md's
// per-experiment index). Each reports a gflops metric computed from the
// analytic max-plus operation counts so `go test -bench` output can be
// read against the paper's figures directly. cmd/bpmaxbench runs the same
// experiments at larger scales with aligned-table output.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/roofline"
	"github.com/bpmax-go/bpmax/internal/score"
)

func benchProblem(b *testing.B, n1, n2 int) *ibpmax.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	p, err := ibpmax.NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), score.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func reportGFLOPS(b *testing.B, flopsPerOp int64) {
	b.Helper()
	b.ReportMetric(float64(flopsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkMicroMaxPlus is Figure 12 / Algorithm 3: the streaming
// Y = max(a+X, Y) kernel at an L1-resident chunk.
func BenchmarkMicroMaxPlus(b *testing.B) {
	b.ReportAllocs()
	const chunk = 4096
	x := make([]float32, chunk)
	y := make([]float32, chunk)
	for i := range x {
		x[i] = float32(i % 83)
		y[i] = float32(i % 89)
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			maxplus.Accumulate(y, x, float32(i%7))
		}
		reportGFLOPS(b, chunk*maxplus.FlopsPerElement)
	})
	b.Run("unrolled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			maxplus.Accumulate8(y, x, float32(i%7))
		}
		reportGFLOPS(b, chunk*maxplus.FlopsPerElement)
	})
	b.Run("gather", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			maxplus.DotMaxPlusStride(x, y, 1)
		}
		reportGFLOPS(b, chunk*maxplus.FlopsPerElement)
	})
}

// uniqueThreads deduplicates a thread-count list (on few-core hosts the
// {1, 2, cores, 2·cores} sweep collides).
func uniqueThreads(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if x >= 1 && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// BenchmarkMicroThreads is Figure 12's thread sweep.
func BenchmarkMicroThreads(b *testing.B) {
	b.ReportAllocs()
	cores := runtime.GOMAXPROCS(0)
	for _, th := range uniqueThreads([]int{1, 2, cores, 2 * cores}) {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r := roofline.MeasureStream(th, 4096, 200, false)
				total += r.GFLOPS
			}
			b.ReportMetric(total/float64(b.N), "gflops")
		})
	}
}

// BenchmarkDoubleMaxPlus is Figures 13/14 and Table I: the standalone
// double max-plus system under every schedule.
func BenchmarkDoubleMaxPlus(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(b, 12, 64)
	flops := ibpmax.DMPFlops(12, 64)
	for _, v := range ibpmax.DMPVariants {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ibpmax.SolveDMP(p, v, ibpmax.Config{})
			}
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkBPMaxVariants is Figures 1/15/16: the full BPMax fill under
// every schedule.
func BenchmarkBPMaxVariants(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(b, 12, 48)
	flops := ibpmax.BPMaxFlops(12, 48)
	for _, v := range ibpmax.Variants {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ibpmax.Solve(p, v, ibpmax.Config{})
			}
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkTiledThreads is Figure 17: worker scaling of the tiled double
// max-plus, including past the physical core count.
func BenchmarkTiledThreads(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(b, 12, 96)
	flops := ibpmax.DMPFlops(12, 96)
	cores := runtime.GOMAXPROCS(0)
	for _, th := range uniqueThreads([]int{1, 2, cores, 2 * cores}) {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ibpmax.SolveDMP(p, ibpmax.DMPTiled, ibpmax.Config{Workers: th})
			}
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkTileShapes is Figure 18: tile-shape sensitivity of the double
// max-plus (cubic vs j2-untiled shapes).
func BenchmarkTileShapes(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(b, 12, 96)
	flops := ibpmax.DMPFlops(12, 96)
	shapes := []struct {
		name       string
		ti, tk, tj int
	}{
		{"8x8x8", 8, 8, 8},
		{"16x16x16", 16, 16, 16},
		{"32x4xN", 32, 4, 0},
		{"64x16xN", 64, 16, 0},
		{"128x8xN", 128, 8, 0},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := ibpmax.Config{TileI2: sh.ti, TileK2: sh.tk, TileJ2: sh.tj}
			for i := 0; i < b.N; i++ {
				ibpmax.SolveDMP(p, ibpmax.DMPTiled, cfg)
			}
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkMemoryMaps is the Fig 10 ablation: bounding-box vs packed
// quarter-space inner maps.
func BenchmarkMemoryMaps(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(b, 12, 48)
	flops := ibpmax.BPMaxFlops(12, 48)
	for _, kind := range []ibpmax.MapKind{ibpmax.MapBox, ibpmax.MapPacked} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ibpmax.Solve(p, ibpmax.VariantHybridTiled, ibpmax.Config{Map: kind})
			}
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkWindowed measures the banded scan (the GPU comparator's
// formulation) against the full fill at the same lengths.
func BenchmarkWindowed(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(b, 12, 96)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ibpmax.Solve(p, ibpmax.VariantHybridTiled, ibpmax.Config{})
		}
	})
	b.Run("window=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ibpmax.SolveWindowed(p, 12, 16, ibpmax.Config{})
		}
	})
}

// BenchmarkFoldAPI measures the public entry point end to end (S tables,
// fill, metadata).
func BenchmarkFoldAPI(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(9))
	s1 := rna.Random(rng, 12).String()
	s2 := rna.Random(rng, 48).String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fold(s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldBatchSteadyState measures the screening steady state — the
// fold → score → release cycle FoldBatch performs per item — with fresh
// per-fold allocation versus a shared engine and pool. The pooled
// sub-benchmark is PR 2's acceptance gate: after the warm-up fold its
// allocs/op must be O(1), at least 90% below the fresh sub-benchmark, with
// no throughput regression.
func BenchmarkFoldBatchSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	s1 := rna.Random(rng, 12).String()
	s2 := rna.Random(rng, 48).String()
	cycle := func(b *testing.B, opts ...Option) {
		res, err := Fold(s1, s2, opts...)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycle(b)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine(4)
		defer e.Close()
		opts := []Option{WithEngine(e), WithPool(NewPool()), WithWorkers(4)}
		cycle(b, opts...) // warm the pool before counting
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, opts...)
		}
	})
	b.Run("pooled+metrics", func(b *testing.B) {
		// The observability acceptance gate: enabling metrics must add zero
		// allocations and <5% time to the pooled steady state.
		b.ReportAllocs()
		e := NewEngine(4)
		defer e.Close()
		m := NewMetrics()
		opts := []Option{WithEngine(e), WithPool(NewPool()), WithWorkers(4), WithMetrics(m)}
		cycle(b, opts...) // warm the pool before counting
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, opts...)
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine(4)
		defer e.Close()
		opts := []Option{WithEngine(e), WithPool(NewPool())}
		items := []BatchItem{
			{Name: "a", Seq1: s1, Seq2: s2},
			{Name: "b", Seq1: s2, Seq2: s1},
		}
		release := func(rs []BatchResult) {
			for _, r := range rs {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				r.Result.Release()
			}
		}
		release(FoldBatch(items, 2, opts...))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			release(FoldBatch(items, 2, opts...))
		}
	})
}

// BenchmarkFoldBatchSharedQuery is the caching acceptance gate: a screening
// loop that folds one query strand against a rotating set of targets, cold
// (no cache) versus served by the substrate layer versus served whole from
// the result layer. The warm-results sub-benchmark must run at least 1.3x
// faster than cold (in practice it skips the entire solve, so the margin is
// far larger); warm-substrate shows the S-table share alone.
func BenchmarkFoldBatchSharedQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	query := rna.Random(rng, 48).String()
	targets := make([]string, 16)
	for i := range targets {
		targets[i] = rna.Random(rng, 12).String()
	}
	cycle := func(b *testing.B, i int, opts []Option) {
		res, err := Fold(targets[i%len(targets)], query, opts...)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	run := func(b *testing.B, cache *Cache) {
		b.ReportAllocs()
		e := NewEngine(4)
		defer e.Close()
		opts := []Option{WithEngine(e), WithPool(NewPool()), WithWorkers(4)}
		if cache != nil {
			opts = append(opts, WithCache(cache))
		}
		// Warm the pool — and, when present, the cache — over the full
		// target rotation before counting.
		for i := range targets {
			cycle(b, i, opts)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, i, opts)
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, nil) })
	b.Run("warm-substrate", func(b *testing.B) {
		run(b, NewCache(CacheConfig{DisableResults: true}))
	})
	b.Run("warm-results", func(b *testing.B) {
		run(b, NewCache(CacheConfig{}))
	})
}

// BenchmarkAdmissionContention measures the admission gate's overhead on a
// contended steady state: GOMAXPROCS goroutines folding through a
// half-width gate, versus the same workload ungated. The gate's cost per
// fold (one mutex + one queue park/wake) must stay far below fill time.
func BenchmarkAdmissionContention(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	s1 := rna.Random(rng, 12).String()
	s2 := rna.Random(rng, 48).String()
	run := func(b *testing.B, gate *Admission) {
		b.ReportAllocs()
		pool := NewPool()
		opts := []Option{WithPool(pool), WithWorkers(1)}
		if gate != nil {
			opts = append(opts, WithAdmission(gate))
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				res, err := Fold(s1, s2, opts...)
				if err != nil {
					b.Error(err)
					return
				}
				res.Release()
			}
		})
	}
	b.Run("ungated", func(b *testing.B) { run(b, nil) })
	b.Run("gated", func(b *testing.B) {
		width := runtime.GOMAXPROCS(0)/2 + 1
		run(b, NewAdmission(AdmissionConfig{MaxConcurrent: width}))
	})
}
