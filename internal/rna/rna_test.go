package rna

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	s, err := New("acgut")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := s.String(); got != "ACGUU" {
		t.Errorf("String() = %q, want %q", got, "ACGUU")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	for _, in := range []string{"ACGX", "N", "AC GU", "acg-u", "ACGU\n"} {
		if _, err := New(in); err == nil {
			t.Errorf("New(%q): expected error, got nil", in)
		}
	}
}

func TestNewEmpty(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatalf("New(\"\"): %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d, want 0", s.Len())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on invalid input did not panic")
		}
	}()
	MustNew("XYZ")
}

func TestBaseValid(t *testing.T) {
	for _, b := range Bases {
		if !b.Valid() {
			t.Errorf("Base %c should be valid", b)
		}
	}
	if Base('N').Valid() {
		t.Error("Base N should be invalid")
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: U, U: A, C: G, G: C}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("%c.Complement() = %c, want %c", b, got, want)
		}
	}
}

func TestComplementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Complement on invalid base did not panic")
		}
	}()
	Base('Z').Complement()
}

func TestFromBases(t *testing.T) {
	in := []Base{A, C, G, U}
	s := FromBases(in)
	in[0] = U // must not alias
	if got := s.String(); got != "ACGU" {
		t.Errorf("FromBases aliased input: got %q", got)
	}
}

func TestFromBasesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromBases on invalid base did not panic")
		}
	}()
	FromBases([]Base{A, 'x'})
}

func TestWithName(t *testing.T) {
	s := MustNew("ACGU").WithName("tRNA-frag")
	if s.Name() != "tRNA-frag" {
		t.Errorf("Name() = %q", s.Name())
	}
	if MustNew("ACGU").Name() != "" {
		t.Error("fresh sequence should have empty name")
	}
}

func TestSub(t *testing.T) {
	s := MustNew("ACGUA")
	if got := s.Sub(1, 3).String(); got != "CGU" {
		t.Errorf("Sub(1,3) = %q, want CGU", got)
	}
	if got := s.Sub(2, 1).Len(); got != 0 {
		t.Errorf("Sub(2,1) should be empty, got len %d", got)
	}
	if got := s.Sub(0, 4).String(); got != "ACGUA" {
		t.Errorf("Sub(0,4) = %q", got)
	}
}

func TestSubPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sub out of range did not panic")
		}
	}()
	MustNew("ACGU").Sub(0, 4)
}

func TestReverseComplement(t *testing.T) {
	s := MustNew("AACG")
	if got := s.ReverseComplement().String(); got != "CGUU" {
		t.Errorf("ReverseComplement = %q, want CGUU", got)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Random(rng, int(n%64))
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	a := MustNew("ACGU")
	b := MustNew("acgu").WithName("other")
	if !a.Equal(b) {
		t.Error("sequences with same bases should be Equal regardless of name")
	}
	if a.Equal(MustNew("ACG")) || a.Equal(MustNew("ACGA")) {
		t.Error("different sequences reported Equal")
	}
}

func TestGCContent(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"", 0},
		{"AAAA", 0},
		{"GCGC", 1},
		{"ACGU", 0.5},
	}
	for _, c := range cases {
		if got := MustNew(c.in).GCContent(); got != c.want {
			t.Errorf("GCContent(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCounts(t *testing.T) {
	s := MustNew("AACGUUU")
	want := [4]int{2, 1, 1, 3}
	if got := s.Counts(); got != want {
		t.Errorf("Counts = %v, want %v", got, want)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(42)), 100)
	b := Random(rand.New(rand.NewSource(42)), 100)
	if !a.Equal(b) {
		t.Error("Random with same seed should be deterministic")
	}
	c := Random(rand.New(rand.NewSource(43)), 100)
	if a.Equal(c) {
		t.Error("Random with different seed should (overwhelmingly) differ")
	}
}

func TestRandomLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 1000} {
		if got := Random(rng, n).Len(); got != n {
			t.Errorf("Random(%d).Len() = %d", n, got)
		}
	}
}

func TestRandomGCBias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := RandomGC(rng, 20000, 0.8)
	if gc := s.GCContent(); gc < 0.77 || gc > 0.83 {
		t.Errorf("RandomGC(0.8) produced GC content %v", gc)
	}
	low := RandomGC(rng, 20000, 0.1)
	if gc := low.GCContent(); gc < 0.07 || gc > 0.13 {
		t.Errorf("RandomGC(0.1) produced GC content %v", gc)
	}
}

func TestRandomGCClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if gc := RandomGC(rng, 500, 2.0).GCContent(); gc != 1 {
		t.Errorf("RandomGC(2.0) GC content = %v, want 1", gc)
	}
	if gc := RandomGC(rng, 500, -1.0).GCContent(); gc != 0 {
		t.Errorf("RandomGC(-1) GC content = %v, want 0", gc)
	}
}

func TestHairpinShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Hairpin(rng, 10, 4)
	if s.Len() != 24 {
		t.Fatalf("Hairpin length = %d, want 24", s.Len())
	}
	// Stem positions must be complementary: s[i] pairs s[len-1-i].
	for i := 0; i < 10; i++ {
		if s.At(i).Complement() != s.At(s.Len()-1-i) {
			t.Errorf("stem position %d not complementary", i)
		}
	}
}

func TestNewResolving(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, err := NewResolving("ACGUNRYSWKMBDHVacgun", rng)
	if err != nil {
		t.Fatalf("NewResolving: %v", err)
	}
	if s.Len() != 20 {
		t.Fatalf("length = %d", s.Len())
	}
	// Fixed positions stay fixed.
	if s.At(0) != A || s.At(1) != C || s.At(2) != G || s.At(3) != U {
		t.Errorf("canonical prefix altered: %s", s)
	}
	// Ambiguity codes resolve within their sets.
	if s.At(5) != A && s.At(5) != G { // R = A|G
		t.Errorf("R resolved to %c", s.At(5))
	}
	if s.At(6) != C && s.At(6) != U { // Y = C|U
		t.Errorf("Y resolved to %c", s.At(6))
	}
	// Determinism for a fixed seed.
	s2, _ := NewResolving("ACGUNRYSWKMBDHVacgun", rand.New(rand.NewSource(4)))
	if !s.Equal(s2) {
		t.Error("NewResolving not deterministic for fixed rng")
	}
	// Still rejects genuinely invalid letters.
	if _, err := NewResolving("AXC", rng); err == nil {
		t.Error("X accepted")
	}
}

func TestNewResolvingDistribution(t *testing.T) {
	// Over many resolutions of N, all four bases appear.
	rng := rand.New(rand.NewSource(8))
	s, err := NewResolving(strings.Repeat("N", 400), rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := s.Counts()
	for i, c := range counts {
		if c == 0 {
			t.Errorf("base %c never chosen for N", Bases[i])
		}
	}
}

func TestBasesValidInString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := Random(rng, 256)
	for _, r := range s.String() {
		if !strings.ContainsRune("ACGU", r) {
			t.Fatalf("Random produced invalid letter %q", r)
		}
	}
}

func TestAtMatchesString(t *testing.T) {
	s := MustNew("AUGC")
	str := s.String()
	for i := 0; i < s.Len(); i++ {
		if byte(s.At(i)) != str[i] {
			t.Errorf("At(%d) = %c, string has %c", i, s.At(i), str[i])
		}
	}
}

func TestBasesCopySemantics(t *testing.T) {
	s := MustNew("ACGU")
	b := s.Bases()
	b[0] = U
	if s.String() != "ACGU" {
		t.Error("Bases() must return a copy")
	}
}
