package bpmax

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFoldQuick(t *testing.T) {
	res, err := Fold("GGG", "CCC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 9 {
		t.Errorf("GGG×CCC = %v, want 9", res.Score)
	}
	if res.N1 != 3 || res.N2 != 3 {
		t.Errorf("dims = %d, %d", res.N1, res.N2)
	}
	if res.FLOPs <= 0 || res.TableBytes <= 0 {
		t.Errorf("metadata: flops=%d bytes=%d", res.FLOPs, res.TableBytes)
	}
}

func TestFoldRejectsBadInput(t *testing.T) {
	if _, err := Fold("ACGX", "ACGU"); err == nil || !strings.Contains(err.Error(), "sequence 1") {
		t.Errorf("bad seq1 error = %v", err)
	}
	if _, err := Fold("ACGU", "NN"); err == nil || !strings.Contains(err.Error(), "sequence 2") {
		t.Errorf("bad seq2 error = %v", err)
	}
	if _, err := Fold("", "ACGU"); err == nil {
		t.Error("empty seq1 accepted")
	}
	if _, err := Fold("A", "C", WithVariant("warp-speed")); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestFoldVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	letters := []byte("ACGU")
	randSeq := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(4)]
		}
		return string(b)
	}
	s1, s2 := randSeq(9), randSeq(8)
	var want float32
	for i, v := range []Variant{Base, Coarse, Fine, Hybrid, HybridTiled} {
		res, err := Fold(s1, s2, WithVariant(v), WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if i == 0 {
			want = res.Score
		} else if res.Score != want {
			t.Errorf("%s score %v != base %v", v, res.Score, want)
		}
	}
}

func TestFoldOptionsCompose(t *testing.T) {
	res, err := Fold("GGAUCC", "GGAUCC",
		WithVariant(Hybrid), WithPackedMemory(), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Fold("GGAUCC", "GGAUCC", WithVariant(Base))
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != ref.Score {
		t.Errorf("tuned fold %v != reference %v", res.Score, ref.Score)
	}
}

func TestFoldStructure(t *testing.T) {
	res, err := Fold("GGG", "CCC")
	if err != nil {
		t.Fatal(err)
	}
	st := res.Structure()
	if len(st.Inter) != 3 {
		t.Fatalf("inter bonds = %v", st.Inter)
	}
	if st.Bracket1 != "[[[" || st.Bracket2 != "[[[" {
		t.Errorf("brackets = %q %q", st.Bracket1, st.Bracket2)
	}
	if st2 := res.Structure(); st2 != st {
		t.Error("Structure should be cached")
	}
}

func TestStructureWeightEqualsScore(t *testing.T) {
	res, err := Fold("GGAUACGUCC", "GGCAUAUGCC")
	if err != nil {
		t.Fatal(err)
	}
	st := res.Structure()
	// Recompute the weight through the public model: GC=3, AU=2, GU=1.
	weight := func(a, b byte) float32 {
		switch {
		case a == 'G' && b == 'C', a == 'C' && b == 'G':
			return 3
		case a == 'A' && b == 'U', a == 'U' && b == 'A':
			return 2
		case a == 'G' && b == 'U', a == 'U' && b == 'G':
			return 1
		}
		return -1e30
	}
	s1, s2 := "GGAUACGUCC", "GGCAUAUGCC"
	var total float32
	for _, p := range st.Intra1 {
		total += weight(s1[p.I], s1[p.J])
	}
	for _, p := range st.Intra2 {
		total += weight(s2[p.I], s2[p.J])
	}
	for _, p := range st.Inter {
		total += weight(s1[p.I1], s2[p.I2])
	}
	if total != res.Score {
		t.Errorf("structure weight %v != score %v", total, res.Score)
	}
}

func TestSubScore(t *testing.T) {
	res, err := Fold("GGAUCC", "GGAUCC")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SubScore(0, res.N1-1, 0, res.N2-1); got != res.Score {
		t.Errorf("full SubScore %v != Score %v", got, res.Score)
	}
	// Empty seq2 interval = single-strand optimum of seq1 interval.
	if got, want := res.SubScore(0, 5, 3, 2), res.SingleScore1(0, 5); got != want {
		t.Errorf("empty-seq2 SubScore = %v, want %v", got, want)
	}
	if got, want := res.SubScore(4, 3, 0, 5), res.SingleScore2(0, 5); got != want {
		t.Errorf("empty-seq1 SubScore = %v, want %v", got, want)
	}
	if got := res.SubScore(3, 2, 4, 3); got != 0 {
		t.Errorf("both-empty SubScore = %v", got)
	}
}

func TestWithWeights(t *testing.T) {
	// With unit weights GGG×CCC scores 3 pairs = 3.
	res, err := Fold("GGG", "CCC", WithWeights(Weights{Unit: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 3 {
		t.Errorf("unit GGG×CCC = %v, want 3", res.Score)
	}
	// Custom weights: GC=10 makes the duplex worth 30.
	res, err = Fold("GGG", "CCC", WithWeights(Weights{GC: 10, AU: 2, GU: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 30 {
		t.Errorf("custom GGG×CCC = %v, want 30", res.Score)
	}
}

func TestWithMinHairpin(t *testing.T) {
	// GC can pair internally at distance 1 with MinHairpin 0 but not with
	// MinHairpin 3; intermolecular pairing is unaffected.
	res0, err := FoldSingle("GC")
	if err != nil {
		t.Fatal(err)
	}
	if res0.Score != 3 {
		t.Errorf("GC single = %v, want 3", res0.Score)
	}
	res3, err := FoldSingle("GC", WithMinHairpin(3))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Score != 0 {
		t.Errorf("GC single with MinHairpin=3 = %v, want 0", res3.Score)
	}
}

func TestFoldSingle(t *testing.T) {
	res, err := FoldSingle("GGGAAACCC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 9 { // three nested GC pairs
		t.Errorf("hairpin score = %v, want 9", res.Score)
	}
	if res.Bracket != "(((...)))" {
		t.Errorf("bracket = %q", res.Bracket)
	}
	if len(res.Pairs) != 3 {
		t.Errorf("pairs = %v", res.Pairs)
	}
}

func TestFoldSingleEmpty(t *testing.T) {
	res, err := FoldSingle("")
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || res.N != 0 || res.Bracket != "" {
		t.Errorf("empty fold = %+v", res)
	}
}

func TestScanWindowed(t *testing.T) {
	full, err := Fold("GGGAAACCC", "GGGUUUCCC")
	if err != nil {
		t.Fatal(err)
	}
	// A window wider than both sequences must reproduce the global score.
	w, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.Best < full.Score {
		t.Errorf("wide-window best %v < full score %v", w.Best, full.Score)
	}
	if !w.InWindow(w.I1, w.J1, w.I2, w.J2) {
		t.Error("best cell reported out of window")
	}
	if got := w.At(w.I1, w.J1, w.I2, w.J2); got != w.Best {
		t.Errorf("At(best cell) = %v, want %v", got, w.Best)
	}
	// Narrow windows bound memory.
	narrow, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.TableBytes >= w.TableBytes {
		t.Errorf("narrow window (%d B) should be smaller than wide (%d B)", narrow.TableBytes, w.TableBytes)
	}
	if narrow.Best > w.Best {
		t.Errorf("narrow best %v exceeds wide best %v", narrow.Best, w.Best)
	}
}

func TestScanWindowedRejectsBadInput(t *testing.T) {
	if _, err := ScanWindowed("AXC", "ACGU", 2, 2); err == nil {
		t.Error("bad seq1 accepted")
	}
	if _, err := ScanWindowed("ACGU", "ACGX", 2, 2); err == nil {
		t.Error("bad seq2 accepted")
	}
	if _, err := ScanWindowed("ACGU", "ACGU", 0, 2); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSingleEnsemble(t *testing.T) {
	ens, err := SingleEnsemble("GGGAAACCC", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Structures < 1 || ens.Cooptimal < 1 || ens.Cooptimal > ens.Structures {
		t.Errorf("ensemble = %+v", ens)
	}
	// The perfect hairpin has a unique optimum.
	if ens.Cooptimal != 1 {
		t.Errorf("GGGAAACCC cooptimal = %v, want 1", ens.Cooptimal)
	}
	// A homopolymer has exactly one (empty) structure.
	flat, err := SingleEnsemble("AAAA", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Structures != 1 || flat.Cooptimal != 1 || flat.LogZ != 0 {
		t.Errorf("AAAA ensemble = %+v", flat)
	}
	// Empty sequence and bad inputs.
	if e, err := SingleEnsemble("", 1.0); err != nil || e.Structures != 1 {
		t.Errorf("empty ensemble = %+v, %v", e, err)
	}
	if _, err := SingleEnsemble("GG", 0); err == nil {
		t.Error("kT=0 accepted")
	}
	if _, err := SingleEnsemble("NN", 1.0); err == nil {
		t.Error("bad letters accepted")
	}
}

func TestBestLocal(t *testing.T) {
	res, err := Fold("GGGAAACCC", "GGGUUUCCC")
	if err != nil {
		t.Fatal(err)
	}
	// Unrestricted scan returns the global optimum at the full intervals.
	v, i1, j1, i2, j2 := res.BestLocal(100, 100)
	if v != res.Score {
		t.Errorf("unrestricted BestLocal = %v, want %v", v, res.Score)
	}
	if i1 != 0 || j1 != res.N1-1 || i2 != 0 || j2 != res.N2-1 {
		t.Errorf("unrestricted argmax = (%d,%d,%d,%d)", i1, j1, i2, j2)
	}
	// Restricted scans are monotone in the span limits and bounded by the
	// global score.
	v3, a1, b1, a2, b2 := res.BestLocal(3, 3)
	if v3 > v {
		t.Errorf("restricted best %v exceeds global %v", v3, v)
	}
	if b1-a1 >= 3 || b2-a2 >= 3 {
		t.Errorf("restricted argmax (%d,%d,%d,%d) violates spans", a1, b1, a2, b2)
	}
	// Cross-check against the windowed scan at the same spans.
	w, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v3 != w.Best {
		t.Errorf("BestLocal(3,3) = %v, windowed scan = %v", v3, w.Best)
	}
}

func TestGFLOPSFinite(t *testing.T) {
	res, err := Fold("GGAUCCGGAUCC", "GGAUCCGGAUCC")
	if err != nil {
		t.Fatal(err)
	}
	if g := res.GFLOPS(); g < 0 {
		t.Errorf("GFLOPS = %v", g)
	}
}
