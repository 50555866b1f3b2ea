package bpmax

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// TestSubstrateForm: BuildS takes the closure sweep exactly where its model's
// sums are exact — maxWeight·2ᵉ·⌊n/2⌋ below 2²⁴ on the model's 2⁻ᵉ grid, for
// integer, fractional and negative weights alike — and the walk beyond, with
// the same table either way as the walk's; the float64 partition substrates,
// scaled and log domain, always take the walk.
func TestSubstrateForm(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ctx, cfg := context.Background(), Config{Workers: 1}
	for _, c := range []struct {
		name   string
		params score.Params
		n      int
		want   bool
	}{
		{"default", score.DefaultParams(), 40, true},
		{"minhairpin", score.Params{Model: score.BasePair(), MinHairpin: 3}, 40, true},
		{"fractional", customParams(3.1, 1.7, 0.3), 40, true},
		{"negative integer", customParams(3, 2, -1), 40, true},
		{"weight × ⌊n/2⌋ just under 2²⁴", customParams(1<<20, 2, 1), 31, true},
		{"weight × ⌊n/2⌋ at 2²⁴", customParams(1<<20, 2, 1), 32, false},
		{"2⁻⁸ units × ⌊n/2⌋ just under 2²⁴", customParams(1<<12, 1.7, 0.3), 31, true},
		{"2⁻⁸ units × ⌊n/2⌋ at 2²⁴", customParams(1<<12, 1.7, 0.3), 32, false},
	} {
		seq := rna.Random(rng, c.n)
		w := score.WeightsOf(seq, c.params)
		got, err := BuildS(ctx, nil, w, c.params.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Closed() != c.want {
			t.Errorf("%s, %d nt: closure form %v, want %v", c.name, c.n, got.Closed(), c.want)
		}
		walk := nussinov.Build(c.n, w.At)
		for i := 0; i < c.n; i++ {
			for j := i; j < c.n; j++ {
				if g, w := got.At(i, j), walk.At(i, j); g != w {
					t.Fatalf("%s: S[%d,%d] = %v, walk %v", c.name, i, j, g, w)
				}
			}
		}
	}

	// The predicate at the 2²⁴ edge on lengths no table is built for: unit
	// weights, ⌊n/2⌋ = 2²⁴ - 1 and 2²⁴.
	if g := score.GridOf(score.Unit()); !g.Exact(1<<25-1) || g.Exact(1<<25) {
		t.Errorf("unit weights: Exact(2²⁵-1) = %v, Exact(2²⁵) = %v; want true, false", g.Exact(1<<25-1), g.Exact(1<<25))
	}

	p, err := NewProblem(rna.Random(rng, 12), rna.Random(rng, 30), score.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !p.S1.Closed() || !p.S2.Closed() {
		t.Fatal("NewProblem's S tables took the walk under integer weights")
	}
	domains := map[bool]bool{}
	for _, kT := range []float64{1, 0.001} { // 0.001 trips the scaled domain's guard
		ps := buildTestPartitionSub(t, p, kT)
		for _, s := range []*PartitionS{ps.S1, ps.S2} {
			domains[s.Scaled()] = true
			if s.T.Closed() {
				t.Fatalf("kT %v: a float64 substrate (scaled %v) took the closure form", kT, s.Scaled())
			}
		}
	}
	if len(domains) != 2 {
		t.Fatalf("partition substrates built in domains %v only; want scaled and log", domains)
	}
}

// TestWeightsBuildTheIntra1Table: BuildS from a strand's weight view is the
// table a build from Build's n² Intra1 rows makes, bit for bit, on every
// stock model under hairpin loops 0 and 3: inline below the cutoff, and on
// two workers' tiles from it up, where tiles that run at once share the
// view's masked row (run under -race by ci.sh).
func TestWeightsBuildTheIntra1Table(t *testing.T) {
	ctx, rng := context.Background(), rand.New(rand.NewSource(38))
	for _, n := range []int{61, nussinov.SequentialCutoff + 5} {
		seq := rna.Random(rng, n)
		for _, m := range []score.Model{score.BasePair(), score.Unit(), score.Forbidden("forbidden")} {
			for _, hairpin := range []int{0, 3} {
				p := score.Params{Model: m, MinHairpin: hairpin}
				intra := score.Build(seq, rna.Sequence{}, p).Intra1
				want := nussinov.NewGTable[float32](n)
				rows := func(i, lo, hi int) []float32 { return intra[i*n+lo : i*n+hi] }
				if err := want.FillContext(ctx, semiring.MaxPlusKernels(true), 0, rows, true, nil); err != nil {
					t.Fatal(err)
				}
				got, err := BuildS(ctx, nil, score.WeightsOf(seq, p), m, Config{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				requireSameS(t, fmt.Sprintf("%d nt %s hairpin %d", n, m.Name(), hairpin), got, want)
			}
		}
	}
}

// TestBuildSOverwritesStaleCells: BuildS does not zero a reused table, so
// every cell of [0, n)² must come from the fill. A 1032-nt table's storage,
// poisoned with NaN, rebuilt at a shorter length on the same pitch, at 1024 (a
// whole number of tiles), below the cutoff on a dense pitch, and short, inline
// and on two workers, reads bit for bit as a fresh build. From the cutoff up
// the closure's tiles at block distance d ≥ 2 take a Product, which folds
// into a tile's cells: a NaN left in one would survive it, so this also pins
// that the tile is set to Zero before the product reads it.
func TestBuildSOverwritesStaleCells(t *testing.T) {
	ctx, rng := context.Background(), rand.New(rand.NewSource(38))
	for _, cfg := range []Config{{Workers: 1}, {Workers: 2}} {
		for _, p := range []score.Params{score.DefaultParams(), {Model: score.BasePair(), MinHairpin: 3}} {
			big := nussinov.SequentialCutoff + 40
			reused, err := BuildS(ctx, nil, score.WeightsOf(rna.Random(rng, big), p), p.Model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{big - 3, 1024, nussinov.SequentialCutoff - 1, 100} {
				stale := reused.Data()[:cap(reused.Data())]
				for i := range stale {
					stale[i] = float32(math.NaN())
				}
				w := score.WeightsOf(rna.Random(rng, n), p)
				got, err := BuildS(ctx, reused, w, p.Model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if &got.Data()[0] != &stale[0] {
					t.Fatalf("%d nt: BuildS did not build into the reused storage", n)
				}
				want, err := BuildS(ctx, nil, w, p.Model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameS(t, fmt.Sprintf("%d nt after %d nt, hairpin %d, %d workers", n, big, p.MinHairpin, cfg.Workers), got, want)
			}
		}
	}
}

// requireSameS fails unless got and want have the same size and every cell
// of [0, N)², both triangles, has the same bits.
func requireSameS(t *testing.T, label string, got, want *nussinov.Table) {
	t.Helper()
	if got.N != want.N || got.Pitch() != want.Pitch() {
		t.Fatalf("%s: %d nt at pitch %d, want %d at %d", label, got.N, got.Pitch(), want.N, want.Pitch())
	}
	for i := 0; i < want.N; i++ {
		for j, w := range want.Row(i) {
			if g := got.Row(i)[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s: S[%d,%d] = %v, want %v", label, i, j, g, w)
			}
		}
	}
}
