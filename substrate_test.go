package bpmax

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/bpmax-go/bpmax/internal/rna"
)

// substrateAlgorithms enumerates every public substrate choice.
var substrateAlgorithms = []SubstrateAlgorithm{SubstrateAuto, SubstrateClassic, SubstrateFourRussians}

// TestSubstrateAlgorithmFoldParity pins the public contract of
// WithSubstrateAlgorithm: every choice yields the same score and the same
// traceback on an interaction fold, for integer and non-integer models
// alike (the latter gets the streamed fill whatever was asked).
func TestSubstrateAlgorithmFoldParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seq1 := rna.Random(rng, 8).String()
	seq2 := rna.Random(rng, 256).String() // long enough for Four-Russians blocks of q = 4
	weights := []Weights{
		{},                           // basepair: integer-bounded
		{Unit: true},                 // unit: integer-bounded
		{GC: 2.5, AU: 1.25, GU: 0.5}, // fractional: the streamed fill everywhere
	}
	for _, w := range weights {
		base, err := Fold(seq1, seq2, WithWeights(w), WithSubstrateAlgorithm(SubstrateClassic))
		if err != nil {
			t.Fatalf("classic fold: %v", err)
		}
		baseSt := base.Structure()
		for _, a := range substrateAlgorithms {
			res, err := Fold(seq1, seq2, WithWeights(w), WithSubstrateAlgorithm(a))
			if err != nil {
				t.Fatalf("%s fold: %v", a, err)
			}
			if res.Score != base.Score {
				t.Fatalf("weights %+v: %s score %v != classic %v", w, a, res.Score, base.Score)
			}
			st := res.Structure()
			if st.Bracket1 != baseSt.Bracket1 || st.Bracket2 != baseSt.Bracket2 {
				t.Fatalf("weights %+v: %s structure differs from classic", w, a)
			}
		}
	}
}

// TestSubstrateAlgorithmSingleParity covers the single-strand entry point,
// which routes through the pipeline's parallel context build.
func TestSubstrateAlgorithmSingleParity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	seq := rna.Random(rng, 500).String()
	base, err := FoldSingle(seq, WithSubstrateAlgorithm(SubstrateClassic))
	if err != nil {
		t.Fatalf("classic: %v", err)
	}
	for _, a := range substrateAlgorithms {
		res, err := FoldSingle(seq, WithSubstrateAlgorithm(a))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Score != base.Score || res.Bracket != base.Bracket {
			t.Fatalf("%s: score/bracket differ from classic (%v vs %v)", a, res.Score, base.Score)
		}
	}
}

// TestSubstrateAlgorithmCacheSharing folds with one algorithm, then serves
// the substrate from cache under another: bit-identical tables mean the
// cache key carries no algorithm component, so entries must be shared.
func TestSubstrateAlgorithmCacheSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	seq1 := rna.Random(rng, 8).String()
	seq2 := rna.Random(rng, 220).String()
	c := NewCache(CacheConfig{DisableResults: true})
	cold, err := Fold(seq1, seq2, WithCache(c), WithSubstrateAlgorithm(SubstrateFourRussians))
	if err != nil {
		t.Fatalf("cold fold: %v", err)
	}
	warm, err := Fold(seq1, seq2, WithCache(c), WithSubstrateAlgorithm(SubstrateClassic))
	if err != nil {
		t.Fatalf("warm fold: %v", err)
	}
	if warm.Score != cold.Score {
		t.Fatalf("warm score %v != cold %v", warm.Score, cold.Score)
	}
	st := c.Stats()
	if st.SubstrateHits == 0 {
		t.Fatalf("classic request missed substrates built by four-russians: %+v", st)
	}
}

// TestSubstrateAlgorithmUnknown pins the validation error on every entry
// point that builds substrates.
func TestSubstrateAlgorithmUnknown(t *testing.T) {
	bad := WithSubstrateAlgorithm("quantum")
	if _, err := Fold("GGG", "CCC", bad); err == nil || !strings.Contains(err.Error(), "unknown substrate algorithm") {
		t.Fatalf("Fold err = %v", err)
	}
	if _, err := FoldSingle("GGGAAACCC", bad); err == nil || !strings.Contains(err.Error(), "unknown substrate algorithm") {
		t.Fatalf("FoldSingle err = %v", err)
	}
	if _, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 4, 4, bad); err == nil || !strings.Contains(err.Error(), "unknown substrate algorithm") {
		t.Fatalf("ScanWindowed err = %v", err)
	}
}
