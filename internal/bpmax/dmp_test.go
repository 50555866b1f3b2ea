package bpmax

import (
	"math/rand"
	"testing"
)

func TestDMPVariantsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 300))
		n1 := 1 + rng.Intn(8)
		n2 := 1 + rng.Intn(8)
		p := newTestProblem(t, seed, n1, n2)
		ref := SolveDMP(p, DMPReference, Config{})
		for _, v := range DMPVariants {
			got := SolveDMP(p, v, Config{Workers: 3})
			tablesEqual(t, p, ref, got, "dmp-"+v.String())
		}
	}
}

func TestDMPLargerInstance(t *testing.T) {
	p := newTestProblem(t, 9, 11, 18)
	ref := SolveDMP(p, DMPBase, Config{})
	cfg := Config{Workers: 4, TileI2: 5, TileK2: 3}
	for _, v := range []DMPVariant{DMPCoarse, DMPFineDiag, DMPFineBottomUp, DMPTiled} {
		tablesEqual(t, p, ref, SolveDMP(p, v, cfg), "dmp-"+v.String())
	}
}

func TestDMPTileShapes(t *testing.T) {
	p := newTestProblem(t, 13, 5, 16)
	ref := SolveDMP(p, DMPBase, Config{})
	for _, cfg := range []Config{
		{TileI2: 1, TileK2: 1, TileJ2: 1},
		{TileI2: 4, TileK2: 4, TileJ2: 4},
		{TileI2: 7, TileK2: 2, TileJ2: 0},
	} {
		cfg.Workers = 2
		tablesEqual(t, p, ref, SolveDMP(p, DMPTiled, cfg), "dmp-tiled")
	}
}

func TestDMPUpperBoundedByBPMax(t *testing.T) {
	// The standalone system keeps only R0 and the singleton seeds; BPMax
	// adds R1..R4 and the pairing candidates, so F >= G everywhere.
	p := newTestProblem(t, 17, 6, 7)
	g := SolveDMP(p, DMPFineDiag, Config{})
	f := Solve(p, VariantHybrid, Config{})
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					if g.At(i1, j1, i2, j2) > f.At(i1, j1, i2, j2) {
						t.Fatalf("G[%d,%d,%d,%d] = %v exceeds F = %v",
							i1, j1, i2, j2, g.At(i1, j1, i2, j2), f.At(i1, j1, i2, j2))
					}
				}
			}
		}
	}
}

func TestDMPNonNegativeAndMonotone(t *testing.T) {
	p := newTestProblem(t, 23, 7, 6)
	g := SolveDMP(p, DMPTiled, Config{Workers: 2, TileI2: 2, TileK2: 2})
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					v := g.At(i1, j1, i2, j2)
					if v < 0 {
						t.Fatalf("G[%d,%d,%d,%d] = %v < 0", i1, j1, i2, j2, v)
					}
					// Monotone under widening both intervals at once: a
					// (k1,k2) split of the wider box reproduces the inner box
					// plus a non-negative remainder.
					if j1+1 < p.N1 && j2+1 < p.N2 && g.At(i1, j1+1, i2, j2+1) < v {
						t.Fatalf("G not jointly monotone at (%d,%d,%d,%d)", i1, j1, i2, j2)
					}
				}
			}
		}
	}
}

// lcsMatching computes the max-weight monotone matching between the two
// whole sequences by the classic O(N1·N2) DP — an upper bound for the
// split-composed chains G builds (G can only form pairs reachable through
// nested (k1,k2) splits, a subset of all monotone matchings).
func lcsMatching(p *Problem) float32 {
	n1, n2 := p.N1, p.N2
	prev := make([]float32, n2+1)
	cur := make([]float32, n2+1)
	for a := 1; a <= n1; a++ {
		for b := 1; b <= n2; b++ {
			v := prev[b]
			if cur[b-1] > v {
				v = cur[b-1]
			}
			if w := prev[b-1] + p.singleton(a-1, b-1); w > v {
				v = w
			}
			cur[b] = v
		}
		prev, cur = cur, prev
		for i := range cur {
			cur[i] = 0
		}
	}
	return prev[n2]
}

func TestDMPBoundedByMonotoneMatching(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		p := newTestProblem(t, seed+40, 2+rng.Intn(6), 2+rng.Intn(6))
		g := SolveDMP(p, DMPFineDiag, Config{})
		full := g.At(0, p.N1-1, 0, p.N2-1)
		if ub := lcsMatching(p); full > ub {
			t.Errorf("seed %d: G = %v exceeds matching bound %v", seed, full, ub)
		}
	}
}

func TestFlopFormulas(t *testing.T) {
	for _, c := range []struct{ n1, n2 int }{{1, 1}, {2, 3}, {4, 4}, {5, 7}, {8, 6}} {
		if got, want := R0Elements(c.n1, c.n2), measureR0Elements(c.n1, c.n2); got != want {
			t.Errorf("R0Elements(%d,%d) = %d, measured %d", c.n1, c.n2, got, want)
		}
	}
	// Spot values: triples(n) = C(n+1,3).
	if triples(3) != 4 || triples(4) != 10 || triples(2) != 1 || triples(1) != 0 {
		t.Errorf("triples wrong: %d %d %d %d", triples(1), triples(2), triples(3), triples(4))
	}
	if pairs(4) != 10 || pairs(1) != 1 {
		t.Errorf("pairs wrong")
	}
	// The dominant-term hierarchy the paper relies on: for square sizes,
	// R0 >> R1R2 >> cells.
	if R0Elements(64, 64) <= R1R2Elements(64, 64) {
		t.Error("R0 should dominate R1R2 at square sizes")
	}
	if BPMaxFlops(16, 16) <= DMPFlops(16, 16) {
		t.Error("BPMax total flops must exceed DMP flops")
	}
}

func TestDMPStringLabels(t *testing.T) {
	labels := map[DMPVariant]string{
		DMPReference: "reference", DMPBase: "base", DMPCoarse: "coarse",
		DMPFineDiag: "fine-diag", DMPFineBottomUp: "fine-bottomup", DMPTiled: "tiled",
	}
	for v, want := range labels {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if DMPVariant(99).String() == "" {
		t.Error("unknown variant should still render")
	}
}

func TestVariantStringLabels(t *testing.T) {
	labels := map[Variant]string{
		VariantReference: "reference", VariantBase: "base", VariantCoarse: "coarse",
		VariantFine: "fine", VariantHybrid: "hybrid", VariantHybridTiled: "hybrid-tiled",
	}
	for v, want := range labels {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}
