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

// The reuse layers the pipeline rides on, each held bit-identical to a fresh
// Fold by foldParity.
type parityArm int

const (
	// armContext: FoldContext with a background context, every schedule.
	armContext parityArm = iota
	// armPooled: a shared pool and 4-worker engine, every schedule, after a
	// cancelled fold left its half-used state in them.
	armPooled
	// armCached: the cache, a cold pass that fills it (miss path) and a warm
	// one served from it (substrate shares, whole-result hit), pooled or not.
	armCached
	// armRaced: two goroutines racing one pair through one cold cache, one
	// of them pooled (one leads, the other joins or hits).
	armRaced
)

// addParitySeeds seeds a parity fuzzer with three foldable pairs and the
// edge pair (last, "").
func addParitySeeds(f *testing.F, last string) {
	for _, seed := range [][2]string{{"GGG", "CCC"}, {"GGGAAACCC", "GGGUUUCCC"}, {"acgu", "ugca"}, {last, ""}} {
		f.Add(seed[0], seed[1])
	}
}

// foldParity checks that folding s1 × s2 through each of arms is
// bit-identical to a fresh Fold: same acceptance, same score, same
// structure, and a result that releases. Every arm but armContext checks the
// error text too. engine is the one armPooled shares across inputs; pool is
// the one armPooled shares across inputs, and the one armCached and armRaced
// share with each other, so the racing fold draws shells the cached passes
// recycled.
func foldParity(t *testing.T, s1, s2 string, pool *Pool, engine *Engine, arms ...parityArm) {
	if len(s1) > 12 || len(s2) > 12 {
		t.Skip("keep the O(N3M3) fill small")
	}
	want, wantErr := Fold(s1, s2)
	var ws *Structure
	if wantErr == nil {
		ws = want.Structure() // traced once, here: check runs on two goroutines in armRaced
	}
	for _, arm := range arms {
		// check folds through ctx and opts and holds the answer to the fresh
		// fold's; it reports with Errorf so the racing arm may call it off the
		// test's own goroutine.
		check := func(what string, ctx context.Context, opts ...Option) {
			got, err := FoldContext(ctx, s1, s2, opts...)
			if (err != nil) != (wantErr != nil) {
				t.Errorf("%s: err = %v, Fold err = %v", what, err, wantErr)
				return
			}
			if err != nil {
				if arm != armContext && err.Error() != wantErr.Error() {
					t.Errorf("%s: error %q, fresh %q", what, err, wantErr)
				}
				return
			}
			if got.Score != want.Score {
				t.Errorf("%s: score %v, fresh %v", what, got.Score, want.Score)
			}
			if gs := got.Structure(); gs.Bracket1 != ws.Bracket1 || gs.Bracket2 != ws.Bracket2 {
				t.Errorf("%s: structure %q/%q, fresh %q/%q", what, gs.Bracket1, gs.Bracket2, ws.Bracket1, ws.Bracket2)
			}
			got.Release()
		}
		bg := context.Background()
		switch arm {
		case armContext:
			for _, v := range publicVariants {
				check("context, "+string(v), bg, WithVariant(v))
			}
		case armPooled:
			cancelled, cancel := context.WithCancel(bg)
			cancel()
			_, _ = FoldContext(cancelled, s1, s2, WithPool(pool), WithEngine(engine))
			for _, v := range publicVariants {
				check("pooled, "+string(v), bg, WithVariant(v), WithPool(pool), WithEngine(engine), WithWorkers(4))
			}
		case armCached:
			cache := NewCache(CacheConfig{})
			for _, pass := range []string{"cold pass", "warm pass"} {
				check(pass, bg, WithCache(cache))
				check(pass+", pooled", bg, WithCache(cache), WithPool(pool))
			}
		case armRaced:
			raced := NewCache(CacheConfig{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); check("raced", bg, WithCache(raced)) }()
			go func() { defer wg.Done(); check("raced, pooled", bg, WithCache(raced), WithPool(pool)) }()
			wg.Wait()
		}
	}
}

// FuzzFoldContextParity holds the context-aware path with a background
// context to plain Fold, every schedule (armContext).
func FuzzFoldContextParity(f *testing.F) {
	addParitySeeds(f, "A")
	f.Fuzz(func(t *testing.T, s1, s2 string) { foldParity(t, s1, s2, nil, nil, armContext) })
}

// FuzzPooledParity holds folds through one shared pool and engine, after a
// cancelled fold touched them, to fresh folds (armPooled).
func FuzzPooledParity(f *testing.F) {
	pool := NewPool()
	engine := NewEngine(4)
	f.Cleanup(engine.Close)
	addParitySeeds(f, "AXB")
	f.Fuzz(func(t *testing.T, s1, s2 string) { foldParity(t, s1, s2, pool, engine, armPooled) })
}

// FuzzCachedFoldParity holds folds served through the cache, cold, warm and
// raced, to fresh folds (armCached, armRaced), all pooled folds of an input on
// one pool.
func FuzzCachedFoldParity(f *testing.F) {
	addParitySeeds(f, "AXB")
	f.Fuzz(func(t *testing.T, s1, s2 string) { foldParity(t, s1, s2, NewPool(), nil, armCached, armRaced) })
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
