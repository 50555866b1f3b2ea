package bpmax

// Benchmarks for the execution runtime: a loop on a persistent worker
// engine, the whole life of an engine scoped to one fold, and the pooled
// steady-state solve cycle. Read the allocs/op column: pooled+engine must stay O(1).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// BenchmarkEngineRun isolates the runtime's own cost: "engine" is one loop
// dispatched to parked workers; "scoped" is what a bare width > 1 fold pays
// for having no engine handed to it — start a team, run a fold's worth of
// loops (~40 wavefront steps) on it, close it.
func BenchmarkEngineRun(b *testing.B) {
	work := func(int) {}
	ctx := context.Background()
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine(4)
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Run(ctx, 256, 4, work); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scoped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine(4)
			for l := 0; l < 40; l++ {
				if err := e.Run(ctx, 256, 4, work); err != nil {
					b.Fatal(err)
				}
			}
			e.Close()
		}
	})
}

// BenchmarkSolveSteadyState is the full solver-layer fold cycle (problem
// build, fill, release) fresh versus recycled.
func BenchmarkSolveSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	s1 := rna.Random(rng, 10).String()
	s2 := rna.Random(rng, 40).String()
	params := score.DefaultParams()
	cycle := func(b *testing.B, pl *Pool, cfg Config) {
		var p *Problem
		var err error
		if pl != nil {
			p, err = pl.NewProblem(s1, s2, params)
		} else {
			var q1, q2 rna.Sequence
			if q1, err = rna.New(s1); err == nil {
				if q2, err = rna.New(s2); err == nil {
					p, err = NewProblem(q1, q2, params)
				}
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		ft, err := SolveContext(context.Background(), p, VariantHybridTiled, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ft.Release()
		p.Release()
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		cfg := Config{Workers: 2}
		for i := 0; i < b.N; i++ {
			cycle(b, nil, cfg)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pl := NewPool()
		cfg := Config{Workers: 2, Pool: pl}
		cycle(b, pl, cfg) // warm-up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, pl, cfg)
		}
	})
	b.Run("pooled+engine", func(b *testing.B) {
		b.ReportAllocs()
		pl := NewPool()
		e := NewEngine(4)
		defer e.Close()
		cfg := Config{Workers: 4, Pool: pl, Engine: e}
		cycle(b, pl, cfg) // warm-up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, pl, cfg)
		}
	})
}

// BenchmarkFillShapes times the pooled one-worker hybrid-tiled max-plus fill
// at the shapes the masked R0 was measured at (docs/PERFORMANCE.md,
// "Dominated splits"): fold's 16×128, serve's 8×48 misses, and the shapes
// between. `go test -bench FillShapes ./internal/bpmax` on the parent and the
// change, interleaved, gives the ratio per shape.
func BenchmarkFillShapes(b *testing.B) {
	for _, sh := range [][2]int{{16, 128}, {8, 48}, {8, 64}, {16, 64}, {8, 96}, {8, 128}} {
		rng := rand.New(rand.NewSource(int64(sh[0]*1000 + sh[1])))
		p, err := NewProblem(rna.Random(rng, sh[0]), rna.Random(rng, sh[1]), score.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		pl := NewPool()
		cfg := Config{Workers: 1, Pool: pl}
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ft, err := SolveContext(context.Background(), p, VariantHybridTiled, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ft.Release()
			}
		})
	}
}
