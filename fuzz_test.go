package bpmax

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/bpmax-go/bpmax/internal/seqio"
)

// FuzzFold checks that Fold either rejects its input with an error or
// returns an internally consistent result (non-negative score, valid
// traceback whose weight matches), for arbitrary byte strings.
func FuzzFold(f *testing.F) {
	f.Add("GGG", "CCC")
	f.Add("acgu", "ACGT")
	f.Add("", "A")
	f.Add("GGGAAACCC", "GGGUUUCCC")
	f.Add("AXB", "CCC")
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		if len(s1) > 16 || len(s2) > 16 {
			t.Skip("keep the O(N3M3) fill small")
		}
		res, err := Fold(s1, s2)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if res.Score < 0 {
			t.Fatalf("negative score %v for %q x %q", res.Score, s1, s2)
		}
		st := res.Structure()
		if len(st.Bracket1) != res.N1 || len(st.Bracket2) != res.N2 {
			t.Fatalf("bracket lengths %d/%d for %d/%d nt", len(st.Bracket1), len(st.Bracket2), res.N1, res.N2)
		}
		if len(st.Inter) > min(res.N1, res.N2) {
			t.Fatalf("more intermolecular bonds (%d) than the shorter strand", len(st.Inter))
		}
	})
}

// FuzzFoldContextParity checks that the context-aware path with a
// background context is bit-identical to plain Fold for every schedule:
// same acceptance, same score, same traceback.
func FuzzFoldContextParity(f *testing.F) {
	f.Add("GGG", "CCC")
	f.Add("GGGAAACCC", "GGGUUUCCC")
	f.Add("acgu", "ugca")
	f.Add("A", "")
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		if len(s1) > 12 || len(s2) > 12 {
			t.Skip("keep the O(N3M3) fill small")
		}
		want, wantErr := Fold(s1, s2)
		for _, v := range publicVariants {
			got, err := FoldContext(context.Background(), s1, s2, WithVariant(v))
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, Fold err = %v", v, err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.Score != want.Score {
				t.Fatalf("%s: score %v, Fold score %v", v, got.Score, want.Score)
			}
			gs, ws := got.Structure(), want.Structure()
			if gs.Bracket1 != ws.Bracket1 || gs.Bracket2 != ws.Bracket2 {
				t.Fatalf("%s: structure %q/%q, Fold %q/%q", v, gs.Bracket1, gs.Bracket2, ws.Bracket1, ws.Bracket2)
			}
		}
	})
}

// FuzzPooledParity checks that folding through a shared pool and engine is
// bit-identical to a fresh fold for every schedule and arbitrary inputs —
// same acceptance, same error text, same score, same structure — including
// when a cancelled fold touched the pool immediately before.
func FuzzPooledParity(f *testing.F) {
	pool := NewPool()
	engine := NewEngine(4)
	f.Cleanup(engine.Close)
	f.Add("GGG", "CCC")
	f.Add("GGGAAACCC", "GGGUUUCCC")
	f.Add("acgu", "ugca")
	f.Add("AXB", "")
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		if len(s1) > 12 || len(s2) > 12 {
			t.Skip("keep the O(N3M3) fill small")
		}
		want, wantErr := Fold(s1, s2)
		// Leave a cancelled fold's half-used state in the pool first; the
		// real fold must be unaffected.
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		_, _ = FoldContext(cancelled, s1, s2, WithPool(pool), WithEngine(engine))
		for _, v := range publicVariants {
			got, err := Fold(s1, s2, WithVariant(v), WithPool(pool), WithEngine(engine), WithWorkers(4))
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, Fold err = %v", v, err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s: pooled error %q, fresh %q", v, err, wantErr)
				}
				continue
			}
			if got.Score != want.Score {
				t.Fatalf("%s: pooled score %v, fresh %v", v, got.Score, want.Score)
			}
			gs, ws := got.Structure(), want.Structure()
			if gs.Bracket1 != ws.Bracket1 || gs.Bracket2 != ws.Bracket2 {
				t.Fatalf("%s: pooled structure %q/%q, fresh %q/%q", v, gs.Bracket1, gs.Bracket2, ws.Bracket1, ws.Bracket2)
			}
			got.Release()
		}
	})
}

// FuzzCachedFoldParity checks that a fold served through the cache — the
// substrate layer, the result layer, a warm hit of each, and two goroutines
// racing one pair through one cold cache (one leads, the other joins or hits)
// — is bit-identical to a fresh fold for arbitrary inputs: same acceptance,
// same error text, same score, same structure.
func FuzzCachedFoldParity(f *testing.F) {
	f.Add("GGG", "CCC")
	f.Add("GGGAAACCC", "GGGUUUCCC")
	f.Add("acgu", "ugca")
	f.Add("AXB", "")
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		if len(s1) > 12 || len(s2) > 12 {
			t.Skip("keep the O(N3M3) fill small")
		}
		want, wantErr := Fold(s1, s2)
		var ws *Structure
		if wantErr == nil {
			ws = want.Structure() // traced once, here: check runs on two goroutines
		}
		// check folds through opts and holds the answer to the cold fold's; it
		// reports with Errorf so the racing arm may call it off the test's own
		// goroutine.
		check := func(arm string, opts ...Option) {
			got, err := Fold(s1, s2, opts...)
			if (err != nil) != (wantErr != nil) {
				t.Errorf("%s: err = %v, Fold err = %v", arm, err, wantErr)
				return
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Errorf("%s: cached error %q, fresh %q", arm, err, wantErr)
				}
				return
			}
			if got.Score != want.Score {
				t.Errorf("%s: cached score %v, fresh %v", arm, got.Score, want.Score)
			}
			if gs := got.Structure(); gs.Bracket1 != ws.Bracket1 || gs.Bracket2 != ws.Bracket2 {
				t.Errorf("%s: cached structure %q/%q, fresh %q/%q", arm, gs.Bracket1, gs.Bracket2, ws.Bracket1, ws.Bracket2)
			}
			got.Release()
		}
		cache := NewCache(CacheConfig{})
		pool := NewPool()
		// Two passes: the first fills the cache (miss path), the second is
		// served from it (substrate shares + whole-result hit). Both must
		// match the cold fold exactly, pooled or not.
		for _, pass := range []string{"cold pass", "warm pass"} {
			check(pass, WithCache(cache))
			check(pass+", pooled", WithCache(cache), WithPool(pool))
		}
		raced := NewCache(CacheConfig{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); check("raced", WithCache(raced)) }()
		go func() { defer wg.Done(); check("raced, pooled", WithCache(raced), WithPool(pool)) }()
		wg.Wait()
	})
}

// FuzzFastaRoundTrip checks the FASTA reader never panics and that
// whatever it accepts survives a write/read round trip.
func FuzzFastaRoundTrip(f *testing.F) {
	f.Add(">a\nACGU\n")
	f.Add(">x\r\nAC\r\nGU\r\n>y\n\n")
	f.Add("; comment\n>z\nacgt")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := seqio.ReadString(text)
		if err != nil {
			return
		}
		out, err := seqio.WriteString(recs, 60)
		if err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := seqio.ReadString(out)
		if err != nil {
			t.Fatalf("round trip unreadable: %v\n%q", err, out)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip %d records, want %d", len(back), len(recs))
		}
		for i := range recs {
			// Names may lose leading/trailing spaces; sequences must not
			// change.
			if !back[i].Seq.Equal(recs[i].Seq) {
				t.Fatalf("record %d sequence changed", i)
			}
			if strings.TrimSpace(back[i].Name) != strings.TrimSpace(recs[i].Name) {
				t.Fatalf("record %d name changed: %q -> %q", i, recs[i].Name, back[i].Name)
			}
		}
	})
}
