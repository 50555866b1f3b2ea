package bpmax

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/bpmax-go/bpmax/internal/rna"
)

// substrateAlgorithms enumerates every accepted substrate name.
var substrateAlgorithms = []SubstrateAlgorithm{"", SubstrateAuto, SubstrateClassic}

// TestSubstrateAlgorithmFoldParity pins the public contract of
// WithSubstrateAlgorithm: every accepted name yields the same score and the
// same traceback on an interaction fold, for integer and non-integer models
// alike.
func TestSubstrateAlgorithmFoldParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seq1 := rna.Random(rng, 8).String()
	seq2 := rna.Random(rng, 256).String()
	weights := []Weights{
		{},                           // basepair
		{Unit: true},                 // unit
		{GC: 2.5, AU: 1.25, GU: 0.5}, // fractional
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

// TestSubstrateAlgorithmCacheSharing folds under one substrate name, then
// serves the substrate from cache under the other: the cache key carries no
// algorithm component, so entries must be shared.
func TestSubstrateAlgorithmCacheSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	seq1 := rna.Random(rng, 8).String()
	seq2 := rna.Random(rng, 220).String()
	c := NewCache(CacheConfig{DisableResults: true})
	cold, err := Fold(seq1, seq2, WithCache(c), WithSubstrateAlgorithm(SubstrateAuto))
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
		t.Fatalf("classic request missed substrates built under auto: %+v", st)
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

// TestSessionRejectsBadServingOptions: a substrate, algebra or kT no fold
// could run with fails construction — a server must refuse to boot on it, not
// answer every request with the option error. The retired Four-Russians
// names are unknown names like any other, and the error says what is
// accepted.
func TestSessionRejectsBadServingOptions(t *testing.T) {
	for _, name := range []SubstrateAlgorithm{"four-russians", "4r", "quantum"} {
		_, err := NewSession(WithSubstrateAlgorithm(name))
		if err == nil {
			t.Fatalf("NewSession accepted substrate %q", name)
		}
		for _, want := range []string{string(name), `"auto"`, `"classic"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("substrate %q: error %q does not name %s", name, err, want)
			}
		}
	}
	if _, err := NewSession(WithAlgebra("bogus")); err == nil || !strings.Contains(err.Error(), "unknown algebra") {
		t.Errorf("NewSession(WithAlgebra(bogus)) err = %v", err)
	}
	if _, err := NewSession(WithAlgebra(AlgebraPartition), WithKT(-1)); err == nil || !strings.Contains(err.Error(), "kT") {
		t.Errorf("NewSession(partition, kT=-1) err = %v", err)
	}
}
