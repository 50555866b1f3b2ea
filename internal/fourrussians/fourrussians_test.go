package fourrussians

import (
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

func scoreFor(seq rna.Sequence, m score.Model) nussinov.ScoreFunc {
	return func(i, j int) float32 { return m.Pair(seq.At(i), seq.At(j)) }
}

// models returns the three stock score models with their IntegerBounded
// step (all three must be integer-bounded by construction).
func models(t testing.TB) []struct {
	m       score.Model
	maxStep int
} {
	out := []struct {
		m       score.Model
		maxStep int
	}{}
	for _, m := range []score.Model{score.BasePair(), score.Unit(), score.Forbidden("forbidden")} {
		maxStep, ok := m.IntegerBounded()
		if !ok {
			t.Fatalf("model %s is not integer-bounded", m.Name())
		}
		out = append(out, struct {
			m       score.Model
			maxStep int
		}{m, maxStep})
	}
	return out
}

// requireIdentical asserts two tables are bit-identical, not just equal
// under float comparison semantics.
func requireIdentical(t *testing.T, label string, got, want *nussinov.Table) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	gd, wd := got.Data(), want.Data()
	for idx := range wd {
		if gd[idx] != wd[idx] {
			i, j := idx/want.Pitch(), idx%want.Pitch()
			t.Fatalf("%s: S[%d,%d] = %v, classic %v", label, i, j, gd[idx], wd[idx])
		}
	}
}

func TestParityAllModelsSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 48; n++ {
		seq := rna.Random(rng, n)
		for _, mc := range models(t) {
			sc := scoreFor(seq, mc.m)
			want := nussinov.Build(n, sc)
			got := Build(n, sc, mc.maxStep)
			requireIdentical(t, mc.m.Name(), got, want)
		}
	}
}

func TestParityExplicitBlockSizes(t *testing.T) {
	// The issue's required grid: q = 1, 2, 3 explicitly, across sizes that
	// include n < q degenerate tables (n = 0, 1, 2 with q = 3).
	rng := rand.New(rand.NewSource(11))
	for _, q := range []int{1, 2, 3, 5} {
		for _, n := range []int{0, 1, 2, 3, 4, 7, 16, 33, 64, 97} {
			seq := rna.Random(rng, n)
			for _, mc := range models(t) {
				sc := scoreFor(seq, mc.m)
				want := nussinov.Build(n, sc)
				got := nussinov.NewGTable[float32](n)
				fillQ(got, sc, mc.maxStep, q)
				requireIdentical(t, mc.m.Name(), got, want)
			}
		}
	}
}

func TestParityMinHairpinScores(t *testing.T) {
	// MinHairpin masks near-diagonal pairs to NegInf; the difference bounds
	// still hold (forbidden candidates never win), so parity must too. This
	// mirrors how pipeline ScoreFuncs come from score.Tables, not raw models.
	rng := rand.New(rand.NewSource(3))
	seq1 := rna.Random(rng, 80)
	seq2 := rna.Random(rng, 8)
	for _, mh := range []int{1, 3, 7} {
		tabs := score.Build(seq1, seq2, score.Params{Model: score.BasePair(), MinHairpin: mh})
		sc := func(i, j int) float32 { return tabs.Score1(i, j) }
		maxStep, ok := score.BasePair().IntegerBounded()
		if !ok {
			t.Fatal("basepair not integer-bounded")
		}
		want := nussinov.Build(80, sc)
		got := Build(80, sc, maxStep)
		requireIdentical(t, "minhairpin", got, want)
	}
}

// TestParityAcrossBlockSizes keeps the size grid of the retired parallel
// build's parity test: 63/64/65 and 257 straddle a change of the block size
// q, and the largest table is laid out on a padded row pitch.
func TestParityAcrossBlockSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{63, 64, 65, 96, 130, 192, 257, 384, nussinov.SequentialCutoff + 5} {
		seq := rna.Random(rng, n)
		sc := scoreFor(seq, score.BasePair())
		requireIdentical(t, "sizes", Build(n, sc, 3), nussinov.Build(n, sc))
	}
}

func TestTracebackOnFourRussiansTable(t *testing.T) {
	// Tables produced here must be drop-in for the existing traceback.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		seq := rna.Random(rng, n)
		sc := scoreFor(seq, score.BasePair())
		tb := Build(n, sc, 3)
		pairs := tb.Traceback(sc)
		if got, want := nussinov.PairsWeight(pairs, sc), tb.At(0, n-1); got != want {
			t.Fatalf("seed %d: traceback weight %v != S %v", seed, got, want)
		}
		_ = nussinov.DotBracket(n, pairs)
	}
}

func TestBlockTableBruteForce(t *testing.T) {
	// Verify the lookup against a direct enumeration of digit vectors for
	// q = 1, 2, 3 at digit bases 1 (forbidden), 2 (unit), and 4 (basepair).
	for _, d := range []int{1, 2, 4} {
		for _, q := range []int{1, 2, 3} {
			bt := newBlockTable(d, q)
			codes := 1
			for s := 1; s < q; s++ {
				codes *= d
			}
			if bt.codes != codes {
				t.Fatalf("d=%d q=%d: codes = %d, want %d", d, q, bt.codes, codes)
			}
			decode := func(c int) []int {
				digits := make([]int, q) // digits[1..q-1]; index 0 unused
				for s := 1; s < q; s++ {
					digits[s] = c % d
					c /= d
				}
				return digits
			}
			for h := 0; h < codes; h++ {
				hv := decode(h)
				for w := 0; w < codes; w++ {
					wv := decode(w)
					want := 0
					hsum, wsum := 0, 0
					for tt := 1; tt < q; tt++ {
						hsum += hv[tt]
						wsum += wv[tt]
						if v := hsum - wsum; v > want {
							want = v
						}
					}
					if got := bt.tbl[h*codes+w]; got != float32(want) {
						t.Fatalf("d=%d q=%d T[%d][%d] = %v, want %d", d, q, h, w, got, want)
					}
				}
			}
		}
	}
}

func TestBlockSize(t *testing.T) {
	cases := []struct {
		n, maxStep, want int
	}{
		{0, 3, 1},
		{1, 3, 1},
		{4, 3, 1},
		{64, 3, 3},   // bits.Len(64) = 7 -> 3; 4^2 = 16 codes
		{256, 3, 4},  // 4^3 = 64 codes
		{1024, 3, 5}, // 4^4 = 256 codes
		{4096, 3, 5}, // 4^5 = 1024 > maxCodes: clamped back to 5
		{4096, 1, 6}, // base 2: 2^5 = 32 codes, fine
		{1 << 20, 0, 10},
		{256, 1000, 1}, // giant digit base: every q > 1 busts the budget
	}
	for _, c := range cases {
		if got := BlockSize(c.n, c.maxStep); got != c.want {
			t.Errorf("BlockSize(%d, %d) = %d, want %d", c.n, c.maxStep, got, c.want)
		}
	}
}

func TestScratchReuseStaysCorrect(t *testing.T) {
	// Scratch code rows come back from a pool unzeroed; run different
	// sizes back to back so stale entries would be caught by parity.
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{300, 90, 257, 33, 190} {
		seq := rna.Random(rng, n)
		sc := scoreFor(seq, score.BasePair())
		requireIdentical(t, "reuse", Build(n, sc, 3), nussinov.Build(n, sc))
	}
}

func benchSeq(n int) nussinov.ScoreFunc {
	rng := rand.New(rand.NewSource(1))
	seq := rna.Random(rng, n)
	return scoreFor(seq, score.BasePair())
}

func BenchmarkBuildClassic1024(b *testing.B) {
	b.ReportAllocs()
	sc := benchSeq(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nussinov.Build(1024, sc)
	}
}

func BenchmarkBuildFourRussians1024(b *testing.B) {
	b.ReportAllocs()
	sc := benchSeq(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(1024, sc, 3)
	}
}
