package score

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/bpmax-go/bpmax/internal/rna"
)

func TestBasePairWeights(t *testing.T) {
	m := BasePair()
	cases := []struct {
		a, b rna.Base
		want Value
	}{
		{rna.G, rna.C, 3},
		{rna.C, rna.G, 3},
		{rna.A, rna.U, 2},
		{rna.U, rna.A, 2},
		{rna.G, rna.U, 1},
		{rna.U, rna.G, 1},
	}
	for _, c := range cases {
		if got := m.Pair(c.a, c.b); got != c.want {
			t.Errorf("Pair(%c,%c) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBasePairForbidden(t *testing.T) {
	m := BasePair()
	forbidden := [][2]rna.Base{
		{rna.A, rna.A}, {rna.A, rna.C}, {rna.A, rna.G},
		{rna.C, rna.C}, {rna.C, rna.U}, {rna.G, rna.G}, {rna.U, rna.U},
	}
	for _, p := range forbidden {
		if m.Allowed(p[0], p[1]) {
			t.Errorf("Pair(%c,%c) should be forbidden", p[0], p[1])
		}
		if got := m.Pair(p[0], p[1]); got != NegInf {
			t.Errorf("Pair(%c,%c) = %v, want NegInf", p[0], p[1], got)
		}
	}
}

func TestUnitWeights(t *testing.T) {
	m := Unit()
	for _, p := range [][2]rna.Base{{rna.G, rna.C}, {rna.A, rna.U}, {rna.G, rna.U}} {
		if got := m.Pair(p[0], p[1]); got != 1 {
			t.Errorf("Unit Pair(%c,%c) = %v, want 1", p[0], p[1], got)
		}
	}
	if m.Allowed(rna.A, rna.G) {
		t.Error("Unit should forbid AG")
	}
}

func TestModelsSymmetric(t *testing.T) {
	for _, m := range []Model{BasePair(), Unit(), Forbidden("x")} {
		if !m.Symmetric() {
			t.Errorf("model %q not symmetric", m.Name())
		}
	}
}

func TestCustomModel(t *testing.T) {
	m := Custom("toy", map[[2]rna.Base]Value{
		{rna.A, rna.A}: 5,
		{rna.G, rna.C}: 1,
	})
	if got := m.Pair(rna.A, rna.A); got != 5 {
		t.Errorf("custom AA = %v", got)
	}
	if got := m.Pair(rna.C, rna.G); got != 1 {
		t.Errorf("custom CG (symmetric) = %v", got)
	}
	if m.Allowed(rna.A, rna.U) {
		t.Error("custom model should forbid unlisted AU")
	}
	if m.Name() != "toy" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestForbiddenAll(t *testing.T) {
	m := Forbidden("none")
	for _, a := range rna.Bases {
		for _, b := range rna.Bases {
			if m.Allowed(a, b) {
				t.Errorf("Forbidden model allows %c-%c", a, b)
			}
		}
	}
}

func TestBuildTablesShapes(t *testing.T) {
	s1 := rna.MustNew("ACGU")
	s2 := rna.MustNew("GGC")
	tb := Build(s1, s2, DefaultParams())
	if tb.N1 != 4 || tb.N2 != 3 {
		t.Fatalf("dims = %d,%d", tb.N1, tb.N2)
	}
	if len(tb.Intra1) != 16 || len(tb.Intra2) != 9 || len(tb.Inter) != 12 {
		t.Fatalf("table sizes = %d,%d,%d", len(tb.Intra1), len(tb.Intra2), len(tb.Inter))
	}
}

func TestBuildTablesValues(t *testing.T) {
	s1 := rna.MustNew("GAC") // G-C pair across 0,2
	s2 := rna.MustNew("CU")
	tb := Build(s1, s2, DefaultParams())
	if got := tb.Score1(0, 2); got != 3 {
		t.Errorf("Score1(0,2)=%v, want 3 (GC)", got)
	}
	if got := tb.Score1(2, 0); got != 3 {
		t.Errorf("Score1(2,0)=%v, want 3", got)
	}
	if got := tb.IScore(0, 0); got != 3 {
		t.Errorf("IScore(0,0)=%v, want 3 (G-C)", got)
	}
	if got := tb.IScore(1, 1); got != 2 {
		t.Errorf("IScore(1,1)=%v, want 2 (A-U)", got)
	}
	if got := tb.IScore(1, 0); got > NegInf/2 {
		t.Errorf("IScore(1,0)=%v, want forbidden (A-C)", got)
	}
}

func TestBuildDiagonalForbidden(t *testing.T) {
	// A base cannot pair with itself: the diagonal must be forbidden even
	// for self-complementary letters under MinHairpin=0 (j-i>0 required).
	s := rna.MustNew("GCGC")
	tb := Build(s, s, DefaultParams())
	for i := 0; i < 4; i++ {
		if tb.Score1(i, i) > NegInf/2 {
			t.Errorf("Score1(%d,%d) should be forbidden", i, i)
		}
	}
}

func TestMinHairpinConstraint(t *testing.T) {
	s := rna.MustNew("GAAC") // G..C pair at distance 3
	p := DefaultParams()
	p.MinHairpin = 3
	tb := Build(s, rna.MustNew("A"), p)
	if tb.Score1(0, 3) > NegInf/2 {
		t.Errorf("distance-3 pair should be forbidden with MinHairpin=3")
	}
	p.MinHairpin = 2
	tb = Build(s, rna.MustNew("A"), p)
	if got := tb.Score1(0, 3); got != 3 {
		t.Errorf("distance-3 pair should score 3 with MinHairpin=2, got %v", got)
	}
}

func TestInterModelOverride(t *testing.T) {
	inter := Forbidden("nointeraction")
	p := DefaultParams()
	p.InterModel = &inter
	s1, s2 := rna.MustNew("GC"), rna.MustNew("CG")
	tb := Build(s1, s2, p)
	for i1 := 0; i1 < 2; i1++ {
		for i2 := 0; i2 < 2; i2++ {
			if tb.IScore(i1, i2) > NegInf/2 {
				t.Errorf("IScore(%d,%d) should be forbidden under override", i1, i2)
			}
		}
	}
	// Intra scores are unaffected by the intermolecular override.
	if tb.Score1(0, 1) != 3 {
		t.Errorf("Score1(0,1)=%v, want 3", tb.Score1(0, 1))
	}
}

func TestTablesSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := rna.Random(rng, 1+rng.Intn(16))
		s2 := rna.Random(rng, 1+rng.Intn(16))
		tb := Build(s1, s2, DefaultParams())
		for i := 0; i < tb.N1; i++ {
			for j := 0; j < tb.N1; j++ {
				if tb.Score1(i, j) != tb.Score1(j, i) {
					return false
				}
			}
		}
		for i := 0; i < tb.N2; i++ {
			for j := 0; j < tb.N2; j++ {
				if tb.Score2(i, j) != tb.Score2(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapSymmetryOfTables(t *testing.T) {
	// Building (s1,s2) and (s2,s1) must transpose Inter and swap Intra
	// tables.
	rng := rand.New(rand.NewSource(9))
	s1 := rna.Random(rng, 7)
	s2 := rna.Random(rng, 5)
	a := Build(s1, s2, DefaultParams())
	b := Build(s2, s1, DefaultParams())
	for i1 := 0; i1 < a.N1; i1++ {
		for i2 := 0; i2 < a.N2; i2++ {
			if a.IScore(i1, i2) != b.IScore(i2, i1) {
				t.Fatalf("Inter not transposed at (%d,%d)", i1, i2)
			}
		}
	}
	for i := 0; i < a.N1; i++ {
		for j := 0; j < a.N1; j++ {
			if a.Score1(i, j) != b.Score2(i, j) {
				t.Fatalf("Intra1/Intra2 mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestNegInfArithmeticSafe(t *testing.T) {
	// Summing a handful of NegInf values must stay finite (no -Inf, no NaN)
	// so downstream max-plus code can compare safely.
	v := NegInf
	for i := 0; i < 100; i++ {
		v += NegInf
	}
	if v != v { // NaN check
		t.Fatal("NegInf accumulation produced NaN")
	}
	if v > NegInf/2 {
		t.Fatal("NegInf accumulation became non-negative-infinite")
	}
}

func TestIntegerBounded(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		max  int
		ok   bool
	}{
		{"basepair", BasePair(), 3, true},
		{"unit", Unit(), 1, true},
		{"forbidden", Forbidden("x"), 0, true},
		{"custom-int", Custom("ci", map[[2]rna.Base]Value{{rna.G, rna.C}: 7}), 7, true},
		{"fractional", Custom("cf", map[[2]rna.Base]Value{{rna.G, rna.C}: 2.5}), 0, false},
		{"negative", Custom("cn", map[[2]rna.Base]Value{{rna.A, rna.U}: -1}), 0, false},
		{"huge", Custom("ch", map[[2]rna.Base]Value{{rna.A, rna.U}: 1 << 21}), 0, false},
	}
	for _, c := range cases {
		max, ok := c.m.IntegerBounded()
		if max != c.max || ok != c.ok {
			t.Errorf("%s: IntegerBounded() = (%d, %v), want (%d, %v)", c.name, max, ok, c.max, c.ok)
		}
	}
}

// TestBuildRecordsIntegerWeights: BuildInto records IntegerBounded over both
// models a table is scored with, intra- and intermolecular, and a reused
// table forgets what its last build recorded.
func TestBuildRecordsIntegerWeights(t *testing.T) {
	s1, s2 := rna.MustNew("GCAU"), rna.MustNew("AUGC")
	seven := Custom("ci", map[[2]rna.Base]Value{{rna.G, rna.C}: 7})
	half := Custom("cf", map[[2]rna.Base]Value{{rna.G, rna.C}: 2.5})
	cases := []struct {
		name  string
		p     Params
		max   int
		exact bool
	}{
		{"integer intermolecular", Params{Model: BasePair(), InterModel: &seven}, 7, true},
		{"fractional intermolecular", Params{Model: BasePair(), InterModel: &half}, 0, false},
		{"default", DefaultParams(), 3, true},
		{"fractional intramolecular", Params{Model: half, InterModel: &seven}, 0, false},
	}
	var tb Tables
	for _, c := range cases {
		BuildInto(&tb, s1, s2, c.p)
		if tb.MaxWeight != c.max || tb.IntegerWeights != c.exact {
			t.Errorf("%s: (MaxWeight, IntegerWeights) = (%d, %v), want (%d, %v)",
				c.name, tb.MaxWeight, tb.IntegerWeights, c.max, c.exact)
		}
	}
}

// TestWeightsMatchIntra1: a strand's weight view is Build's Intra1 bit for
// bit on every stock model under hairpin loops 0 and 3 — At on every cell,
// Rows on every span a fill asks for and on spans that reach into the masked
// band from either side — and a masked span leaves the base rows as they
// were.
func TestWeightsMatchIntra1(t *testing.T) {
	fractional := Custom("fractional", map[[2]rna.Base]Value{
		{rna.G, rna.C}: 3.1, {rna.A, rna.U}: 1.7, {rna.G, rna.U}: 0.3,
	})
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 7, 37} {
		seq := rna.Random(rng, n)
		for _, m := range []Model{BasePair(), Unit(), Forbidden("forbidden"), fractional} {
			for _, hairpin := range []int{0, 3} {
				p := Params{Model: m, MinHairpin: hairpin}
				label := fmt.Sprintf("%d nt %s hairpin %d", n, m.Name(), hairpin)
				want := Build(seq, rna.Sequence{}, p).Intra1
				w := WeightsOf(seq, p)
				if w.Len() != n {
					t.Fatalf("%s: Len %d", label, w.Len())
				}
				at := make([]Value, n*n)
				for i := range n {
					for j := range n {
						at[i*n+j] = w.At(i, j)
					}
				}
				requireSameBits(t, label+" At", at, want)
				for i := range n {
					for lo := 0; lo <= n; lo++ {
						for _, hi := range []int{lo, min(lo+1, n), min(lo+5, n), n} {
							requireSameBits(t, fmt.Sprintf("%s Rows(%d, %d, %d)", label, i, lo, hi),
								w.Rows(i, lo, hi), want[i*n+lo:i*n+hi])
						}
					}
				}
				for b, row := range w.rows {
					for j, v := range row {
						if v != m.pairs[b][w.ords[j]] {
							t.Fatalf("%s: base row %d, column %d = %v after masked spans", label, b, j, v)
						}
					}
				}
			}
		}
	}
}
