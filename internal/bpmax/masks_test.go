package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// TestMaskedFillMatchesSweeps holds the masked fill — R0's block products
// skipping the splits R2 dominates, and R1's those S² dominates — to the
// packed-map fill, which sweeps every split (held to refDP at N1 3), cell for
// cell: N1 in {3, 6} and N2 in {1, 15, 33, 47, 70, 128} (wavefronts of 1 to
// 6 triangles; no split, one word of live bits and two, with their tails),
// TileI2 5 and 13 (groups cut short, groups that start inside a word), one
// worker and two, on the base-pair, unit and custom integer weights, the
// dyadic ones and the non-dyadic ones rounded to the 2⁻⁸ grid, with
// MinHairpin 0-3, on every kernel body. Each fill runs twice: on a solver
// whose table is poisoned and whose live words — the blocks' tile bit-sets,
// the triangles' word scratch and R1's bit-sets — are all 0 (every split
// dropped) before the masks are armed, so a word or a cell read before the
// fill or armMasks wrote it shows — masked below maskMinN2 too,
// where no fold takes masks; and on pooled storage poisoned and released by
// the fill before.
func TestMaskedFillMatchesSweeps(t *testing.T) {
	ctx := context.Background()
	models := []struct {
		name  string
		model score.Model
	}{
		{"base-pair", score.BasePair()}, {"unit", score.Unit()}, {"integer", customParams(7, 4, 2).Model},
		{"dyadic", customParams(2.75, 1.25, 0.5).Model}, {"non-dyadic", customParams(3.1, 1.7, 0.3).Model},
	}
	for _, md := range models {
		for hp := 0; hp <= 3; hp++ {
			for _, sh := range maskShapes() {
				n1, n2 := sh[0], sh[1]
				rng := rand.New(rand.NewSource(int64(1000*n1 + 100*n2 + hp)))
				p, err := NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), score.Params{Model: md.model, MinHairpin: hp})
				if err != nil {
					t.Fatal(err)
				}
				want := Solve(p, VariantHybridTiled, Config{Map: MapPacked})
				if n1 == 3 {
					ref := newRefDP(p)
					eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
						if g, w := want.At(i1, j1, i2, j2), ref.f(i1, j1, i2, j2); g != w {
							t.Fatalf("%s/hairpin=%d/%dx%d: the sweeps' F[%d,%d,%d,%d] = %v, refDP %v", md.name, hp, n1, n2, i1, j1, i2, j2, g, w)
						}
					})
				}
				pl := NewPool()
				for _, tile := range []int{5, 13} {
					for _, workers := range []int{1, 2} {
						for _, impl := range maxplus.Impls() {
							label := fmt.Sprintf("%s/hairpin=%d/%dx%d/tile=%d/workers=%d/%s", md.name, hp, n1, n2, tile, workers, impl)
							cfg := Config{TileI2: tile, Workers: workers}
							cfg.SetKernels(impl)
							s := newSolver(p, cfg, p.N1, p.N2)
							if s.r2 == nil && n2 >= maskMinN2 {
								t.Fatalf("%s: the fill takes no masks", label)
							}
							forceMasks(s, impl) // below maskMinN2 only a test reaches the path
							poison(s.f.data)
							clear(s.tiles)
							clear(s.rowLive)
							clear(s.r1live)
							forceMasks(s, impl) // armed over the poison, as newGSolver arms a pooled shell
							got, err := s.fill(ctx, VariantHybridTiled, "hybrid-tiled")
							if err != nil {
								t.Fatal(err)
							}
							tablesEqual(t, p, want, got, label+": poisoned table and live words")
							cfg.Pool = pl
							first, err := SolveContext(ctx, p, VariantHybridTiled, cfg)
							if err != nil {
								t.Fatal(err)
							}
							poison(first.data)
							first.Release()
							if got, err = SolveContext(ctx, p, VariantHybridTiled, cfg); err != nil {
								t.Fatal(err)
							}
							tablesEqual(t, p, want, got, label+": poisoned pooled storage")
							got.Release()
						}
					}
				}
			}
		}
	}
}

// TestMasksOnlyWhereSumsAreExact: every max-plus fill the solver admits is
// exact — integer, dyadic and rounded non-dyadic weights alike — and takes
// masks on the box map and a band spanning N2, on every kernel body; not on
// the packed map, a narrower band, a strand shorter than maskMinN2 or either
// partition fill, which take R0 as products on the box map but neither R1
// products nor masks. Integer weights whose sums pass 2²⁴ are refused by the
// solver, full fill and band, before any table is built.
func TestMasksOnlyWhereSumsAreExact(t *testing.T) {
	if s := newSolver(newTestProblem(t, 3, 8, maskMinN2-1), Config{}, 8, maskMinN2-1); s.r2 != nil {
		t.Errorf("an 8x%d fill takes masks", maskMinN2-1)
	}
	rng := rand.New(rand.NewSource(5))
	s1, s2 := rna.Random(rng, 4), rna.Random(rng, maskMinN2+6)
	ctx := context.Background()
	noPartitionMasks := func(name string, p *Problem) {
		ps := buildTestPartitionSub(t, p, 1)
		for _, impl := range maxplus.Impls() {
			cfg := Config{}
			cfg.SetKernels(impl)
			a := ps.a
			a.k = cfg.sumProductKernels()
			for domain, a := range map[string]alg[float64]{"scaled": a, "log-domain": ps.logAlg(p)} {
				s := newGSolver(p, a, cfg, p.N1, p.N2, false)
				if !s.blocks || s.blocksR1 || s.r2 != nil {
					t.Errorf("%s/%s: the %s partition fill: R0 products %v, R1 products %v, masks %v; want R0's alone", name, impl, domain, s.blocks, s.blocksR1, s.r2 != nil)
				}
				s.abort()
			}
		}
	}
	huge, err := NewProblem(s1, s2, customParams(1<<22, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := SolveContext(ctx, huge, VariantHybridTiled, Config{})
	wt, werr := SolveWindowedContext(ctx, huge, huge.N1, huge.N2, Config{})
	if !errors.Is(err, errInexact) || ft != nil || !errors.Is(werr, errInexact) || wt != nil {
		t.Errorf("integer past 2^24: err %v, windowed err %v; want both refused", err, werr)
	}
	noPartitionMasks("integer past 2^24", huge)
	for _, md := range parityModels {
		p, err := NewProblem(s1, s2, md.params)
		if err != nil {
			t.Fatal(err)
		}
		for _, impl := range maxplus.Impls() {
			for _, c := range []struct {
				name  string
				cfg   Config
				w2    int
				masks bool
			}{
				{"box", Config{}, p.N2, true},
				{"packed", Config{Map: MapPacked}, p.N2, false},
				{"band", Config{}, p.N2 - 1, false},
			} {
				c.cfg.SetKernels(impl)
				s := newSolver(p, c.cfg, p.N1, c.w2)
				if (s.r2 != nil) != c.masks {
					t.Errorf("%s/%s/%s: masks %v, want %v", md.name, impl, c.name, s.r2 != nil, c.masks)
				}
				s.abort()
			}
		}
		noPartitionMasks(md.name, p)
	}
}

// liveSplitWork is the share of R0's split work that the masked products of
// a finished fill run: every (A block, use, kernel tile, split) weighted by
// the columns the split updates, over the same without masks, read from the
// blocks' tile bit-sets. A = F(i1,k1) serves the N1-1-k1 triangles (i1, j1 >
// k1); the groups are those r0Blocks cuts with the solver's row tiles.
func liveSplitWork(s *solver, ft *FTable) float64 {
	n1, n2, w := ft.N1, ft.N2, s.liveW
	var all, run float64
	for i1 := 0; i1 < n1; i1++ {
		for k1 := i1; k1 < n1-1; k1++ {
			o := ft.outer.At(i1, k1) * s.tileW
			uses, tiles := float64(n1-1-k1), s.tiles[o:o+s.tileW]
			for r0 := 0; r0 < n2; r0 += s.cfg.TileI2 {
				r1 := min(r0+s.cfg.TileI2, n2)
				for q0 := r0; q0 < r1; q0 += prodRows {
					stride := w - q0>>6
					for t := range maxplus.ProductTiles(min(prodRows, r1-q0)) {
						set := tiles[s.tileOff[q0]+t*stride:]
						for k2 := q0; k2 < n2-1; k2++ {
							sp := k2 - q0
							all += uses * float64(n2-1-k2)
							if set[sp>>6]>>(sp&63)&1 != 0 {
								run += uses * float64(n2-1-k2)
							}
						}
					}
				}
			}
		}
	}
	return run / all
}

// TestMaskedSplitWork pins the masks' reach on a fixed 16×128 fold: R0's
// masked products run at most 40 % of the split work (columns updated) of
// dense ones. A mask that marks every split live passes every parity test;
// this is the test it fails.
func TestMaskedSplitWork(t *testing.T) {
	p := newTestProblem(t, 16128, 16, 128)
	for _, impl := range maxplus.Impls() {
		cfg := Config{Workers: 1}
		cfg.SetKernels(impl)
		s := newSolver(p, cfg, p.N1, p.N2)
		if s.r2 == nil {
			t.Fatalf("%s: an exact max-plus box-map fill takes no masks", impl)
		}
		ft, err := s.fill(context.Background(), VariantHybridTiled, "hybrid-tiled")
		if err != nil {
			t.Fatal(err)
		}
		frac := liveSplitWork(s, ft)
		ft.Release()
		t.Logf("16x128/%s: masked R0 runs %.1f %% of the dense split work", impl, 100*frac)
		if frac > 0.40 {
			t.Errorf("16x128/%s: masked R0 runs %.1f %% of the dense split work, want at most 40 %%", impl, 100*frac)
		}
	}
}

// r1SplitWork is the share of R1's product split work that a masked solver's
// bit-sets run: every (row group, kernel tile, split k2 >= q1-1) weighted by
// the columns the split updates, j2 > k2, over the same without masks. Every
// triangle's R1 runs the same groups against the same S², so one triangle's
// share is the fill's.
func r1SplitWork(s *solver) float64 {
	n2 := s.p.N2
	var all, run float64
	for q0 := 0; q0 < n2; q0 += prodRows {
		q1 := min(q0+prodRows, n2)
		live, _ := s.r1Live(q0, q1)
		tiles := q1 - q0 - 3*((q1-q0)/4)
		stride := len(live) / tiles
		for t := range tiles {
			for sp := 0; q1-1+sp < n2-1; sp++ {
				w := float64(n2 - q1 - sp) // the columns right of split q1-1+sp
				all += w
				if live[t*stride+sp>>6]>>(sp&63)&1 != 0 {
					run += w
				}
			}
		}
	}
	return run / all
}

// TestR1SplitWork pins R1's masks' reach on the fixed 16×128 fold: R1's
// products run at most 35 % of the dense split work (columns updated). A mask
// that marks every split live passes every parity test; this is the test it
// fails.
func TestR1SplitWork(t *testing.T) {
	p := newTestProblem(t, 16128, 16, 128)
	for _, impl := range maxplus.Impls() {
		cfg := Config{Workers: 1}
		cfg.SetKernels(impl)
		s := newSolver(p, cfg, p.N1, p.N2)
		if s.r2 == nil {
			t.Fatalf("%s: an exact max-plus box-map fill takes no masks", impl)
		}
		frac := r1SplitWork(s)
		s.abort()
		t.Logf("16x128/%s: masked R1 runs %.1f %% of the dense split work", impl, 100*frac)
		if frac > 0.35 {
			t.Errorf("16x128/%s: masked R1 runs %.1f %% of the dense split work, want at most 35 %%", impl, 100*frac)
		}
	}
}

// r2SplitWork is the share of R2's dense split work — each split k of a row
// reaching the columns j > k — that the solver's fused R2 kernel runs over a
// filled table: the dense triangle of each vector of lanes columns, and the
// columns right of its vector for each split its live words mark. It takes
// R2 again on a copy of every row: a final row is R2's fixed point, kept as
// it is with the fill's own live columns, which it checks.
func r2SplitWork(t *testing.T, r2 func(c, star []float32, lds, k0, n int, live []uint64), star []float32, lds int, ft *FTable, lanes int) float64 {
	n2 := ft.N2
	row, words := make([]float32, n2), make([]uint64, (n2+63)/64)
	var all, run float64
	for i1 := 0; i1 < ft.N1; i1++ {
		for j1 := i1; j1 < ft.N1; j1++ {
			blk := ft.Block(i1, j1)
			for i2 := range n2 {
				final := ft.Row(blk, i2)[:n2]
				copy(row[i2:], final[i2:])
				r2(row, star, lds, i2, n2, words)
				for j := i2; j < n2; j++ {
					if row[j] != final[j] {
						t.Fatalf("F[%d,%d,%d,%d] = %v; R2 of the final row makes it %v", i1, j1, i2, j, final[j], row[j])
					}
				}
				for k := i2; k < n2-1; k++ {
					next := (k/lanes + 1) * lanes // the first column right of k's vector
					all += float64(n2 - 1 - k)
					run += float64(min(next, n2) - k - 1)
					if words[k>>6]>>(k&63)&1 != 0 {
						run += float64(max(0, n2-next))
					}
				}
			}
		}
	}
	return run / all
}

// TestR2SplitWork pins the fused R2 kernel's reach on the fixed 16×128 fold:
// its in-vector triangles and walked live splits come to at most 45 % of
// R2's dense split work (columns updated). A walk that marks every split live
// passes every parity test; this is the test it fails.
func TestR2SplitWork(t *testing.T) {
	p := newTestProblem(t, 16128, 16, 128)
	// The lanes of a vector of float32: R2Go walks the live splits alone.
	lanes := map[string]int{"avx512": 16, "avx2": 8, "go": 1}
	for _, impl := range maxplus.Impls() {
		cfg := Config{Workers: 1}
		cfg.SetKernels(impl)
		s := newSolver(p, cfg, p.N1, p.N2)
		if s.r2 == nil {
			t.Fatalf("%s: an exact max-plus box-map fill takes no masks", impl)
		}
		r2, star, lds := s.r2, s.a.star, s.a.p2
		ft, err := s.fill(context.Background(), VariantHybridTiled, "hybrid-tiled")
		if err != nil {
			t.Fatal(err)
		}
		frac := r2SplitWork(t, r2, star, lds, ft, lanes[impl])
		ft.Release()
		t.Logf("16x128/%s: the fused R2 runs %.1f %% of the dense split work", impl, 100*frac)
		if frac > 0.45 {
			t.Errorf("16x128/%s: the fused R2 runs %.1f %% of the dense split work, want at most 45 %%", impl, 100*frac)
		}
	}
}

// maskShapes are the N1 × N2 TestMaskedFillMatchesSweeps fills: N1 3 and 6
// at every N2.
func maskShapes() [][2]int {
	var shapes [][2]int
	for _, n1 := range []int{3, 6} {
		for _, n2 := range []int{1, 15, 33, 47, 70, 128} {
			shapes = append(shapes, [2]int{n1, n2})
		}
	}
	return shapes
}

// forceMasks arms a max-plus solver's masks as newGSolver does for N2 >=
// maskMinN2.
func forceMasks(s *solver, impl string) {
	s.armMasks(maxplus.BodyOf[float32](impl).R2)
}
