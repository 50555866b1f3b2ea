package score

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/bpmax-go/bpmax/internal/rna"
)

// perCellTables is the pair tables as they were built before the row lookup:
// one Model.Pair call per cell, the hairpin band tested per cell.
func perCellTables(seq1, seq2 rna.Sequence, p Params) (intra1, intra2, inter []Value) {
	intra := func(seq rna.Sequence) []Value {
		n := seq.Len()
		dst := make([]Value, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := j - i; d <= p.MinHairpin && -d <= p.MinHairpin {
					dst[i*n+j] = NegInf
					continue
				}
				dst[i*n+j] = p.Model.Pair(seq.At(i), seq.At(j))
			}
		}
		return dst
	}
	im := p.Model
	if p.InterModel != nil {
		im = *p.InterModel
	}
	n1, n2 := seq1.Len(), seq2.Len()
	inter = make([]Value, n1*n2)
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			inter[i1*n2+i2] = im.Pair(seq1.At(i1), seq2.At(i2))
		}
	}
	return intra(seq1), intra(seq2), inter
}

func requireSameBits(t *testing.T, label string, got, want []Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: cell %d = %v, per-cell Model.Pair %v", label, i, got[i], want[i])
		}
	}
}

// TestPairTableMatchesPerCell: the row-lookup pair tables — both intra tables
// and the inter table, fresh and rebuilt into a pooled Tables' dirty storage,
// and the weight view's cells — are byte-equal to per-cell Model.Pair on every stock
// model, a fractional Custom one and an InterModel unlike Model, under
// hairpin loops 0–3, at lengths from empty up past a kernel row.
func TestPairTableMatchesPerCell(t *testing.T) {
	fractional := Custom("fractional", map[[2]rna.Base]Value{
		{rna.G, rna.C}: 3.1, {rna.A, rna.U}: 1.7, {rna.G, rna.U}: 0.3,
	})
	unit := Unit()
	params := []Params{
		{Model: BasePair()},
		{Model: Unit()},
		{Model: Forbidden("forbidden")},
		{Model: fractional},
		{Model: BasePair(), InterModel: &unit},
		{Model: fractional, InterModel: &unit},
	}
	sizes := []int{0, 1, 2, 5, 64, 257}
	rng := rand.New(rand.NewSource(36))
	pooled := &Tables{}
	for si, n1 := range sizes {
		n2 := sizes[(si+1)%len(sizes)]
		seq1, seq2 := rna.Random(rng, n1), rna.Random(rng, n2)
		for _, base := range params {
			for hairpin := 0; hairpin <= 3; hairpin++ {
				p := base
				p.MinHairpin = hairpin
				label := fmt.Sprintf("%d×%d %s inter=%v hairpin %d", n1, n2, p.Model.Name(), p.InterModel != nil, hairpin)
				w1, w2, wi := perCellTables(seq1, seq2, p)
				got := Build(seq1, seq2, p)
				BuildInto(pooled, seq1, seq2, p)
				for _, tb := range []*Tables{got, pooled} {
					requireSameBits(t, label+" Intra1", tb.Intra1, w1)
					requireSameBits(t, label+" Intra2", tb.Intra2, w2)
					requireSameBits(t, label+" Inter", tb.Inter, wi)
				}
				view := WeightsOf(seq2, p)
				intra := make([]Value, n2*n2)
				for i := range n2 {
					for j := range n2 {
						intra[i*n2+j] = view.At(i, j)
					}
				}
				requireSameBits(t, label+" Weights", intra, w2)
			}
		}
	}
}

// TestNonCanonicalBaseRefused: the lookup maps exactly the four canonical
// bases, in rna.Bases order, and refuses every other byte with Model.Pair's
// panic — no base is silently given an ordinal.
func TestNonCanonicalBaseRefused(t *testing.T) {
	for b := 0; b < 256; b++ {
		base := rna.Base(b)
		want := -1
		for i, c := range rna.Bases {
			if c == base {
				want = i
			}
		}
		if want >= 0 {
			if got := ord(base); got != want {
				t.Fatalf("ord(%q) = %d, want %d", byte(b), got, want)
			}
			continue
		}
		m := BasePair()
		for name, call := range map[string]func(){
			"ord":        func() { ord(base) },
			"Model.Pair": func() { m.Pair(rna.G, base) },
			"Custom":     func() { Custom("bad", map[[2]rna.Base]Value{{base, rna.A}: 1}) },
		} {
			msg := panicMessage(call)
			if wantMsg := fmt.Sprintf("score: non-canonical base %q", byte(b)); msg != wantMsg {
				t.Fatalf("%s on byte %#x: panic %q, want %q", name, b, msg, wantMsg)
			}
		}
	}
	// A sequence cannot carry one to the table fills: parsing refuses it.
	if _, err := rna.New("GGNCC"); err == nil || !strings.Contains(err.Error(), "invalid nucleotide") {
		t.Fatalf("rna.New accepted a non-canonical base: %v", err)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
