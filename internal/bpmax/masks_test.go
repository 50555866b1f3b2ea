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
// skipping the splits R2 dominates — to the Go-body fill, which sweeps every
// split, and that to refDP, cell for cell: N2 in {1, 15, 33, 47, 70, 128}
// (no split, one word of live bits and two, with their tails), TileI2 5 and
// 13 (groups cut short, groups that start inside a word), one worker and two,
// on the base-pair, unit and custom integer weights, the dyadic ones and the
// non-dyadic ones rounded to the 2⁻⁸ grid, with MinHairpin 0-3, on every
// vector body. Each fill runs twice: on a solver whose table is
// poisoned and whose live words are all 0 (every split dropped), so a word
// read before finalize or tileLive wrote it shows — masked below maskMinN2
// too, where no fold takes masks; and on pooled storage poisoned and
// released by the fill before.
func TestMaskedFillMatchesSweeps(t *testing.T) {
	if maxplus.Impl() == "go" {
		t.Skip("no vector body in this build: R0 sweeps")
	}
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
			for _, n2 := range []int{1, 15, 33, 47, 70, 128} {
				rng := rand.New(rand.NewSource(int64(100*n2 + hp)))
				p, err := NewProblem(rna.Random(rng, 3), rna.Random(rng, n2), score.Params{Model: md.model, MinHairpin: hp})
				if err != nil {
					t.Fatal(err)
				}
				var sweeps Config
				sweeps.SetKernels("go")
				want, ref := Solve(p, VariantHybridTiled, sweeps), newRefDP(p)
				eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
					if g, w := want.At(i1, j1, i2, j2), ref.f(i1, j1, i2, j2); g != w {
						t.Fatalf("%s/hairpin=%d/n2=%d: the sweeps' F[%d,%d,%d,%d] = %v, refDP %v", md.name, hp, n2, i1, j1, i2, j2, g, w)
					}
				})
				pl := NewPool()
				for _, tile := range []int{5, 13} {
					for _, workers := range []int{1, 2} {
						for _, impl := range maxplus.Impls()[:len(maxplus.Impls())-1] {
							label := fmt.Sprintf("%s/hairpin=%d/n2=%d/tile=%d/workers=%d/%s", md.name, hp, n2, tile, workers, impl)
							cfg := Config{TileI2: tile, Workers: workers}
							cfg.SetKernels(impl)
							s := newSolver(p, cfg, p.N1, p.N2)
							if s.merge == nil && n2 >= maskMinN2 {
								t.Fatalf("%s: the fill takes no masks", label)
							}
							forceMasks(s, impl) // below maskMinN2 only a test reaches the path
							poison(s.f.data)
							clear(s.live)
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
// masks on a vector body, the box map and a band spanning N2; not on the Go
// loops, the packed map, a narrower band, a strand shorter than maskMinN2 or
// either partition fill. Integer weights whose sums pass 2²⁴ are refused by
// the solver, full fill and band, before any table is built.
func TestMasksOnlyWhereSumsAreExact(t *testing.T) {
	if s := newSolver(newTestProblem(t, 3, 8, maskMinN2-1), Config{}, 8, maskMinN2-1); s.merge != nil {
		t.Errorf("an 8x%d fill takes masks", maskMinN2-1)
	}
	rng := rand.New(rand.NewSource(5))
	s1, s2 := rna.Random(rng, 4), rna.Random(rng, maskMinN2+6)
	ctx := context.Background()
	noPartitionMasks := func(name string, p *Problem) {
		for _, impl := range maxplus.Impls() {
			cfg := Config{}
			cfg.SetKernels(impl)
			ps := buildTestPartitionSub(t, p, 1)
			a := ps.a
			a.k = cfg.sumProductKernels()
			if s := newGSolver(p, a, cfg, p.N1, p.N2, false); s.merge != nil {
				t.Errorf("%s/%s: the scaled partition fill takes masks", name, impl)
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
				{"box", Config{}, p.N2, impl != "go"},
				{"packed", Config{Map: MapPacked}, p.N2, false},
				{"band", Config{}, p.N2 - 1, false},
			} {
				c.cfg.SetKernels(impl)
				s := newSolver(p, c.cfg, p.N1, c.w2)
				if (s.merge != nil) != c.masks {
					t.Errorf("%s/%s/%s: masks %v, want %v", md.name, impl, c.name, s.merge != nil, c.masks)
				}
				s.abort()
			}
		}
		noPartitionMasks(md.name, p)
	}
}

// liveSplitWork is the share of R0's split work that the masked products of
// a finished fill run: every (A block, use, kernel tile, split) weighted by
// the columns the split updates, over the same without masks. A = F(i1,k1)
// serves the N1-1-k1 triangles (i1, j1 > k1); the tiles are those r0Blocks
// cuts with tileI2-row tiles.
func liveSplitWork(ft *FTable, live []uint64, liveW, tileI2 int) float64 {
	n1, n2 := ft.N1, ft.N2
	var all, run float64
	for i1 := 0; i1 < n1; i1++ {
		for k1 := i1; k1 < n1-1; k1++ {
			uses := float64(n1 - 1 - k1)
			base := ft.outer.At(i1, k1) * n2
			for r0 := 0; r0 < n2; r0 += tileI2 {
				r1 := min(r0+tileI2, n2)
				for q0 := r0; q0 < r1; q0 += prodRows {
					m := min(prodRows, r1-q0)
					for t := range m - 3*(m/4) {
						lo, hi := q0+4*t, q0+4*t+4
						if t >= m/4 {
							lo, hi = q0+t+3*(m/4), q0+t+3*(m/4)+1
						}
						for k2 := q0; k2 < n2-1; k2++ {
							w := uses * float64(n2-1-k2)
							all += w
							for r := lo; r < hi; r++ {
								if live[(base+r)*liveW+k2>>6]>>(k2&63)&1 != 0 {
									run += w
									break
								}
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
	if maxplus.Impl() == "go" {
		t.Skip("no vector body in this build: R0 sweeps")
	}
	p := newTestProblem(t, 16128, 16, 128)
	s := newSolver(p, Config{Workers: 1}, p.N1, p.N2)
	if s.merge == nil {
		t.Fatal("an exact max-plus box-map fill takes no masks")
	}
	ft, err := s.fill(context.Background(), VariantHybridTiled, "hybrid-tiled")
	if err != nil {
		t.Fatal(err)
	}
	frac := liveSplitWork(ft, s.live, s.liveW, s.cfg.TileI2)
	t.Logf("16x128: masked R0 runs %.1f %% of the dense split work", 100*frac)
	if frac > 0.40 {
		t.Errorf("16x128: masked R0 runs %.1f %% of the dense split work, want at most 40 %%", 100*frac)
	}
}

// forceMasks binds a max-plus solver's merge and live words as newGSolver
// does for N2 >= maskMinN2.
func forceMasks(s *solver, impl string) {
	s.merge, s.liveW = maxplus.BodyOf(impl).Merge, (s.p.N2+63)/64
	s.live = make([]uint64, s.f.outer.Size()*s.p.N2*s.liveW)
}
