package bpmax

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// blockShapes are the N2 the block-product tests fill at: one row, and rows
// one short of, at, and one past whole column tiles and row groups, so that
// the tiles, the groups and the row tiles (TileI2 5 cuts groups short) all
// have tails.
var blockShapes = []int{1, 31, 32, 33, 64, 65, 128}

// blockConfigs are the schedules a max-plus fill finalizes through, each
// with the tile shapes that cut the row groups: every one runs R1 by blocks,
// hybrid-tiled R0 too.
var blockConfigs = []struct {
	name string
	v    Variant
	cfg  Config
}{
	{"coarse", VariantCoarse, Config{}},
	{"fine", VariantFine, Config{}},
	{"hybrid", VariantHybrid, Config{}},
	{"hybrid-scratch", VariantHybrid, Config{ScratchAccum: true}},
	{"hybrid-tiled", VariantHybridTiled, Config{}},
	{"hybrid-tiled/5", VariantHybridTiled, Config{TileI2: 5, TileK2: 3}},
}

// TestBlockProductsMatchSweeps holds the fills that take R0 and R1 as block
// products — every vector body the CPU runs — to the same fills on the Go
// loops, which sweep: cell for cell, on every max-plus weight model (integer,
// dyadic and fractional: a max over the same candidates does not depend on
// their order, rounded sums included), every streamed schedule, one worker
// and two, fresh and pooled.
func TestBlockProductsMatchSweeps(t *testing.T) {
	if maxplus.Impl() == "go" {
		t.Skip("no vector body in this build: every fill sweeps")
	}
	ctx := context.Background()
	for _, model := range parityModels {
		for _, n2 := range blockShapes {
			rng := rand.New(rand.NewSource(int64(n2)))
			p, err := NewProblem(rna.Random(rng, 3), rna.Random(rng, n2), model.params)
			if err != nil {
				t.Fatal(err)
			}
			pl := NewPool()
			for _, bc := range blockConfigs {
				for _, workers := range []int{1, 2} {
					for _, pool := range []*Pool{nil, pl} {
						cfg := bc.cfg
						cfg.Workers, cfg.Pool = workers, pool
						cfg.SetKernels("go")
						want, err := SolveContext(ctx, p, bc.v, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, impl := range maxplus.Impls()[:len(maxplus.Impls())-1] {
							label := fmt.Sprintf("%s/n2=%d/%s/workers=%d/pooled=%v/%s", model.name, n2, bc.name, workers, pool != nil, impl)
							cfg.SetKernels(impl)
							s := newSolver(p, cfg, p.N1, p.N2)
							if !s.blocks {
								t.Fatalf("%s: the fill does not take the block products", label)
							}
							s.abort()
							got, err := SolveContext(ctx, p, bc.v, cfg)
							if err != nil {
								t.Fatal(err)
							}
							tablesEqual(t, p, want, got, label)
							got.Release()
						}
						want.Release()
					}
				}
			}
		}
	}
}

// TestBoxBlocksHoldZeroBelowDiagonal: after a max-plus fill on the box map,
// on the block products or the sweeps, every cell of every block below its
// diagonal holds Zero, bit for bit — the cells a product reads through and
// writes into, whose candidates must lose every max.
func TestBoxBlocksHoldZeroBelowDiagonal(t *testing.T) {
	p := newTestProblem(t, 41, 4, 37)
	zero := math.Float32bits(semiring.NegInf)
	for _, impl := range maxplus.Impls() {
		for _, bc := range blockConfigs {
			cfg := bc.cfg
			cfg.Workers = 2
			cfg.SetKernels(impl)
			ft := Solve(p, bc.v, cfg)
			for i1 := 0; i1 < p.N1; i1++ {
				for j1 := i1; j1 < p.N1; j1++ {
					blk := ft.Block(i1, j1)
					for i2 := 0; i2 < p.N2; i2++ {
						for j2 := 0; j2 < i2; j2++ {
							if v := blk[i2*p.N2+j2]; math.Float32bits(v) != zero {
								t.Fatalf("%s/%s: block (%d,%d) cell (%d,%d) below the diagonal holds %v, want Zero",
									impl, bc.name, i1, j1, i2, j2, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestBlockProductsReadNoCellBeforeItsSeed refills a table whose storage
// holds NaN — a recycled buffer that skipped its clear — and must leave the
// table a fill into zeroed storage leaves, every cell below the diagonals
// included: a product or a stream that read a cell before initRow wrote it
// would carry the NaN into a max.
func TestBlockProductsReadNoCellBeforeItsSeed(t *testing.T) {
	ctx := context.Background()
	for _, n2 := range []int{33, 70} {
		p := newTestProblem(t, int64(n2), 4, n2)
		for _, bc := range blockConfigs {
			for _, workers := range []int{1, 2} {
				cfg := bc.cfg
				cfg.Workers = workers
				want := Solve(p, bc.v, cfg)
				s := newSolver(p, cfg, p.N1, p.N2)
				for i := range s.f.data {
					s.f.data[i] = float32(math.NaN())
				}
				got, err := s.fill(ctx, bc.v, bc.v.String())
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range want.data {
					if g := got.data[i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("n2=%d %s workers=%d: cell %d of the poisoned table = %v, fresh %v", n2, bc.name, workers, i, g, w)
					}
				}
			}
		}
	}
}
