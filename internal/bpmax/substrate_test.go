package bpmax

import (
	"context"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// TestSubstrateForm: BuildS takes the closure sweep exactly where its model's
// sums are exact — integer weights, maxWeight·⌊n/2⌋ below 2²⁴ — and the walk
// for fractional or negative weights, with the same table either way as the
// walk's; the float64 partition substrates, scaled and log domain, always
// take the walk.
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
		{"fractional", customParams(3.1, 1.7, 0.3), 40, false},
		{"negative integer", customParams(3, 2, -1), 40, false},
		{"weight × ⌊n/2⌋ just under 2²⁴", customParams(1<<20, 2, 1), 31, true},
		{"weight × ⌊n/2⌋ at 2²⁴", customParams(1<<20, 2, 1), 32, false},
	} {
		seq := rna.Random(rng, c.n)
		intra, err := score.IntraContext(ctx, seq, c.params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildS(ctx, nil, c.n, intra, c.params.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Closed() != c.want {
			t.Errorf("%s, %d nt: closure form %v, want %v", c.name, c.n, got.Closed(), c.want)
		}
		walk := nussinov.Build(c.n, func(i, j int) float32 { return intra[i*c.n+j] })
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
	w, integer := score.Unit().IntegerBounded()
	if !exactSums(integer, w, 1<<25-1) || exactSums(integer, w, 1<<25) {
		t.Errorf("unit weights: exactSums(2²⁵-1) = %v, exactSums(2²⁵) = %v; want true, false",
			exactSums(integer, w, 1<<25-1), exactSums(integer, w, 1<<25))
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
