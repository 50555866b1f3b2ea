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
// one short of, at, and one past whole column tiles of either element type
// (16 float64, 32 float32 columns) and row groups, so that the tiles, the
// groups and the row tiles (TileI2 5 cuts groups short) all have tails.
var blockShapes = []int{1, 15, 16, 17, 31, 32, 33, 64, 65, 128}

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
	{"hybrid-tiled", VariantHybridTiled, Config{}},
	{"hybrid-tiled/5", VariantHybridTiled, Config{TileI2: 5, TileK2: 3}},
}

// TestBlockProductsMatchSweeps holds the fills that take R0 and R1 as block
// products — and, from N2 = maskMinN2 up, skip dominated splits — on every
// kernel body the CPU runs to the same fills on the packed map, which sweep:
// cell for cell, at N1 3 and 6 (wavefronts of 1 to 6 triangles), on every
// max-plus weight model (integer, dyadic and fractional: a max over the same
// candidates does not depend on their order, rounded sums included), every
// streamed schedule, one worker and two, fresh and pooled. The scaled
// partition fill takes R0 alone as products, of float64, and is held to its
// sweeps (r0Tiled) bit for bit at kT 1 and 0.3: a sum is not order-free, so
// this holds only if every cell takes R4, R3 and then its splits in
// ascending order, and every split a product skips or adds is an exact +0
// (docs/ALGORITHM.md §9).
func TestBlockProductsMatchSweeps(t *testing.T) {
	ctx := context.Background()
	for _, model := range parityModels {
		for _, sh := range blockProblemShapes() {
			n1, n2 := sh[0], sh[1]
			rng := rand.New(rand.NewSource(int64(100*n1 + n2)))
			p, err := NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), model.params)
			if err != nil {
				t.Fatal(err)
			}
			pl := NewPool()
			for _, bc := range blockConfigs {
				for _, workers := range []int{1, 2} {
					for _, pool := range []*Pool{nil, pl} {
						cfg := bc.cfg
						cfg.Workers, cfg.Pool, cfg.Map = workers, pool, MapPacked
						want, err := SolveContext(ctx, p, bc.v, cfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Map = MapBox
						for _, impl := range maxplus.Impls() {
							label := fmt.Sprintf("%s/%dx%d/%s/workers=%d/pooled=%v/%s", model.name, n1, n2, bc.name, workers, pool != nil, impl)
							cfg.SetKernels(impl)
							s := newSolver(p, cfg, p.N1, p.N2)
							if !s.blocks || !s.blocksR1 {
								t.Fatalf("%s: the fill does not take R0 and R1 as block products", label)
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
	for _, kT := range []float64{1, 0.3} {
		for _, n2 := range blockShapes {
			rng := rand.New(rand.NewSource(int64(n2)))
			p, err := NewProblem(rna.Random(rng, 3), rna.Random(rng, n2), parityModels[0].params)
			if err != nil {
				t.Fatal(err)
			}
			ps := buildTestPartitionSub(t, p, kT)
			pl := NewPool()
			for _, bc := range blockConfigs {
				for _, workers := range []int{1, 2} {
					for _, pool := range []*Pool{nil, pl} {
						cfg := bc.cfg
						cfg.Workers, cfg.Pool, cfg.Map = workers, pool, MapPacked
						want := scaledFill(t, ctx, p, ps, bc.v, cfg)
						cfg.Map = MapBox
						for _, impl := range maxplus.Impls() {
							label := fmt.Sprintf("kT=%v/n2=%d/%s/workers=%d/pooled=%v/%s", kT, n2, bc.name, workers, pool != nil, impl)
							cfg.SetKernels(impl)
							a := ps.a
							a.k = cfg.sumProductKernels()
							s := newGSolver(p, a, cfg, p.N1, p.N2, false)
							if !s.blocks || s.blocksR1 {
								t.Fatalf("%s: blocks %v, R1 blocks %v: want R0 alone as products", label, s.blocks, s.blocksR1)
							}
							s.abort()
							got := scaledFill(t, ctx, p, ps, bc.v, cfg)
							eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
								if g, w := got.At(i1, j1, i2, j2), want.At(i1, j1, i2, j2); math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%s: F[%d,%d,%d,%d] = %x, the sweeps leave %x", label, i1, j1, i2, j2, math.Float64bits(g), math.Float64bits(w))
								}
							})
							got.Release()
						}
						want.Release()
					}
				}
			}
		}
	}
}

// blockProblemShapes are the N1 × N2 TestBlockProductsMatchSweeps fills its
// max-plus models at: every blockShapes N2 at N1 3 and 6.
func blockProblemShapes() [][2]int {
	var shapes [][2]int
	for _, n1 := range []int{3, 6} {
		for _, n2 := range blockShapes {
			shapes = append(shapes, [2]int{n1, n2})
		}
	}
	return shapes
}

// scaledFill is SolvePartitionContext held to the scaled domain.
func scaledFill(t *testing.T, ctx context.Context, p *Problem, ps *PartitionSub, v Variant, cfg Config) *FTableOf[float64] {
	t.Helper()
	ft, err := SolvePartitionContext(ctx, p, ps, v, cfg)
	if err != nil || !ft.Scaled() {
		t.Fatalf("%dx%d: scaled fill: %v (scaled %v)", p.N1, p.N2, err, err == nil && ft.Scaled())
	}
	return ft
}

// TestBoxBlocksHoldZeroBelowDiagonal: after a max-plus or scaled partition
// fill on the box map, on every kernel body and schedule, every cell of
// every block in its padding — below the diagonal, from the column padFrom
// names on — holds Zero, bit for bit — -1e30, or the partition's +0 — the
// cells a product reads through and writes into, whose candidates must leave
// every cell as it was.
func TestBoxBlocksHoldZeroBelowDiagonal(t *testing.T) {
	p := newTestProblem(t, 41, 4, 37)
	for _, impl := range maxplus.Impls() {
		for _, bc := range blockConfigs {
			cfg := bc.cfg
			cfg.Workers = 2
			cfg.SetKernels(impl)
			ft := Solve(p, bc.v, cfg)
			zeroInPadding(t, p, ft.data, semiring.NegInf, padding(cfg, 32), impl+"/"+bc.name)
			for _, kT := range []float64{1, 0.3} {
				pt := scaledFill(t, context.Background(), p, buildTestPartitionSub(t, p, kT), bc.v, cfg)
				zeroInPadding(t, p, pt.data, 0, padding(cfg, 16), fmt.Sprintf("%s/%s/partition kT=%v", impl, bc.name, kT))
			}
		}
	}
}

// padding returns the first padded column of each row of a box-map fill
// under cfg, whose products take cols columns a tile.
func padding(cfg Config, cols int) func(i2 int) int {
	tile := cfg.withDefaults().TileI2
	return func(i2 int) int { return padFrom(i2, tile, cols) }
}

// zeroInPadding fails unless every box-map block of data holds zero's bits
// in the cells [from(i2), i2) of each row i2.
func zeroInPadding[T float32 | float64](t *testing.T, p *Problem, data []T, zero T, from func(i2 int) int, label string) {
	t.Helper()
	for b := 0; b < len(data)/(p.N2*p.N2); b++ {
		for i2 := 0; i2 < p.N2; i2++ {
			for j2 := from(i2); j2 < i2; j2++ {
				if v := data[(b*p.N2+i2)*p.N2+j2]; math.Float64bits(float64(v)) != math.Float64bits(float64(zero)) {
					t.Fatalf("%s: block %d cell (%d,%d) in the padding holds %v, want %v", label, b, i2, j2, v, zero)
				}
			}
		}
	}
}

// TestBlockProductsReadNoCellBeforeItsSeed refills a table whose storage
// holds poison — a recycled buffer that skipped its clear — and must leave the
// table a fill into zeroed storage leaves, in every cell on and right of each
// row's padding (cells left of it are never written nor read): a product or a
// stream that read a cell before initRow wrote it would carry the poison into
// a max or a sum. The max-plus poison is +1e30, which wins any max (a NaN
// candidate loses every VMAXPS and Go `>`, so it could not show); the
// partition's is NaN, which survives any sum. The pooled fills take their
// storage unzeroed where they write every cell first (newGSolver): a table
// poisoned and released must come back, as the next fill's storage, to the
// same bits, in both algebras and every variant that seeds through initRow.
func TestBlockProductsReadNoCellBeforeItsSeed(t *testing.T) {
	ctx := context.Background()
	for _, n2 := range []int{33, 70} {
		p := newTestProblem(t, int64(n2), 4, n2)
		ps := buildTestPartitionSub(t, p, 1)
		pl := NewPool()
		for _, bc := range blockConfigs {
			for _, workers := range []int{1, 2} {
				cfg := bc.cfg
				cfg.Workers = workers
				label := fmt.Sprintf("n2=%d %s workers=%d", n2, bc.name, workers)
				from, from64 := padding(cfg, 32), padding(cfg, 16)
				want := Solve(p, bc.v, cfg)
				s := newSolver(p, cfg, p.N1, p.N2)
				poison(s.f.data)
				got, err := s.fill(ctx, bc.v, bc.v.String())
				if err != nil {
					t.Fatal(err)
				}
				samePadded(t, p, from, want.data, got.data, label+": the poisoned table")
				cfg.Pool = pl
				samePadded(t, p, from, want.data, refillPoisoned(t, cfg, func() (*FTableOf[float32], error) {
					return SolveContext(ctx, p, bc.v, cfg)
				}), label+": the poisoned pooled table")
				cfg.Pool = nil
				wantZ := scaledFill(t, ctx, p, ps, bc.v, cfg)
				cfg.Pool = pl
				samePadded(t, p, from64, wantZ.data, refillPoisoned(t, cfg, func() (*FTableOf[float64], error) {
					return SolvePartitionContext(ctx, p, ps, bc.v, cfg)
				}), label+": the poisoned pooled partition table")
			}
		}
	}
}

// refillPoisoned fills through solve, poisons the table and releases it to
// cfg's pool, then fills again and checks that the refill got the poisoned
// storage back (unzeroed: every body takes R0 by products on the box map, so
// every cell is seeded before it is read). It returns the refill's
// cells.
func refillPoisoned[T float32 | float64](t *testing.T, cfg Config, solve func() (*FTableOf[T], error)) []T {
	t.Helper()
	first, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	poison(first.data)
	storage := &first.data[0]
	first.Release()
	got, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	if &got.data[0] != storage {
		t.Fatal("the refill did not get the poisoned storage back from the pool")
	}
	return got.data
}

// poison fills cells with the value a read of an unseeded cell cannot hide:
// +1e30 in max-plus, NaN in a sum.
func poison[T float32 | float64](cells []T) {
	v := T(math.NaN())
	if _, ok := any(v).(float32); ok {
		v = T(1e30)
	}
	for i := range cells {
		cells[i] = v
	}
}

// samePadded fails unless got holds want's bits in every cell of every
// box-map block from each row's padding (from) on.
func samePadded[T float32 | float64](t *testing.T, p *Problem, from func(i2 int) int, want, got []T, label string) {
	t.Helper()
	n2 := p.N2
	for i, w := range want {
		if i2, j2 := i/n2%n2, i%n2; j2 >= from(i2) {
			if g := got[i]; math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
				t.Fatalf("%s: cell %d = %v, fresh %v", label, i, g, w)
			}
		}
	}
}
