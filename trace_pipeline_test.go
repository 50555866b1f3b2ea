// Pipeline-level tests for per-request tracing: the trace rides the
// context through the serving spine, reads a cold fold's fill phases from
// the fold's own FoldMetrics (after the cache decision), and still reports
// the partial phase time on every error exit — cancellation, injected
// faults, client disconnects. Fault registry state is global, so no test
// here calls t.Parallel.

package bpmax

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/fault"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
)

// checkFillStages asserts the trace read its fill stages from the fold's
// record: each of accumulate / finalize / triangle is present exactly when
// the record credited that phase, busy for exactly the recorded nanos.
func checkFillStages(t *testing.T, snap itrace.Snapshot, fm *FoldMetrics) {
	t.Helper()
	stages := stageNames(snap)
	for _, p := range []Phase{PhaseAccum, PhaseFinalize, PhaseTriangle} {
		st, ok := stages[p.String()]
		if want := fm.Phases[p].Nanos; ok != (want > 0) || st.BusyNanos != want {
			t.Errorf("stage %s = %+v (present %v), want busy %d from FoldMetrics", p, st, ok, want)
		}
	}
}

// stageNames indexes a snapshot's stages by name.
func stageNames(s itrace.Snapshot) map[string]itrace.StageSnapshot {
	out := make(map[string]itrace.StageSnapshot, len(s.Stages))
	for _, st := range s.Stages {
		out[st.Stage] = st
	}
	return out
}

// TestTracedFoldRecordsSpineStages folds with a trace in the context and
// checks the request-level view: the queue wait and the solver's fill
// phases land as stages whose extents fit inside the request's total.
func TestTracedFoldRecordsSpineStages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s1, s2 := randSeq(rng, 48), randSeq(rng, 48)
	tr := itrace.New("req-1", "fold")
	ctx := itrace.NewContext(context.Background(), tr)
	res, err := FoldContext(ctx, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish(200)
	snap := tr.Snapshot()
	if snap.Status != 200 || snap.TotalNanos <= 0 {
		t.Fatalf("snapshot not finished: %+v", snap)
	}
	stages := stageNames(snap)
	if _, ok := stages["queue"]; !ok {
		t.Errorf("queue stage missing: %v", snap.Stages)
	}
	if st := stages["substrate"]; st.Count != 1 || st.BusyNanos < res.Metrics.Phases[PhaseSubstrate].Nanos {
		t.Errorf("substrate stage %+v does not cover the fold's substrate phase %+v", st, res.Metrics.Phases[PhaseSubstrate])
	}
	checkFillStages(t, snap, &res.Metrics)
	for _, st := range snap.Stages {
		if st.LastNanos > snap.TotalNanos {
			t.Errorf("stage %s extends past the request: last %d > total %d", st.Stage, st.LastNanos, snap.TotalNanos)
		}
		if st.FirstNanos > st.LastNanos {
			t.Errorf("stage %s extent inverted: %+v", st.Stage, st)
		}
	}
}

// TestTracedFoldDoesNotBypassResultCache: a request trace observes the
// pipeline as served and never forces a cold fold. The second identical
// fold is a cache hit — its trace records the hit and no solver work.
func TestTracedFoldDoesNotBypassResultCache(t *testing.T) {
	cache := NewCache(CacheConfig{})
	rng := rand.New(rand.NewSource(12))
	s1, s2 := randSeq(rng, 32), randSeq(rng, 32)

	cold := itrace.New("cold", "fold")
	if _, err := FoldContext(itrace.NewContext(context.Background(), cold), s1, s2, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	cold.Finish(200)
	if _, ok := stageNames(cold.Snapshot())["cache-hit"]; ok {
		t.Fatalf("first fold recorded a cache hit: %+v", cold.Snapshot())
	}

	hot := itrace.New("hot", "fold")
	if _, err := FoldContext(itrace.NewContext(context.Background(), hot), s1, s2, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	hot.Finish(200)
	stages := stageNames(hot.Snapshot())
	if _, ok := stages["cache-hit"]; !ok {
		t.Fatalf("second fold missed the result cache; traced folds must not bypass it: %+v", hot.Snapshot())
	}
	for _, name := range []string{"substrate", "accumulate", "finalize", "triangle"} {
		if _, ok := stages[name]; ok {
			t.Errorf("cache hit recorded solver stage %s: %+v", name, stages)
		}
	}
}

// TestTracerBalancedUnderFailpoint arms a deterministic fault at each stage
// of a cold fold and checks the request trace still balances against what
// ran: a substrate fault leaves one substrate span and no fill stage; a
// mid-fill fault (engine-iter) leaves the substrate span plus the partial
// phase time the solver credited before it stopped, and the failed attempt
// is counted once.
func TestTracerBalancedUnderFailpoint(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(13))
	s1, s2 := randSeq(rng, 48), randSeq(rng, 48)
	for _, site := range []fault.Site{fault.SiteSubstrate, fault.SiteEngineIter} {
		if err := fault.Arm(site, fault.Trigger{Mode: fault.ModeError, Every: 1}); err != nil {
			t.Fatal(err)
		}
		m := NewMetrics()
		tr := itrace.New("faulted", "fold")
		_, err := FoldContext(itrace.NewContext(context.Background(), tr), s1, s2, WithMetrics(m))
		fault.Reset()
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("site %s: fold did not surface the injected fault: %v", site, err)
		}
		if m.Errors() != 1 || m.Folds() != 0 {
			t.Errorf("site %s: errors=%d folds=%d, want 1 and 0", site, m.Errors(), m.Folds())
		}
		tr.Finish(500)
		snap := tr.Snapshot()
		stages := stageNames(snap)
		if st := stages["substrate"]; st.Count != 1 || st.BusyNanos <= 0 {
			t.Errorf("site %s: substrate stage = %+v, want one span", site, st)
		}
		var fill int64
		for _, name := range []string{"accumulate", "finalize", "triangle"} {
			fill += stages[name].BusyNanos
		}
		if mid := site == fault.SiteEngineIter; mid != (fill > 0) {
			t.Errorf("site %s: fill busy = %dns, want partial phase time only for a mid-fill fault: %v", site, fill, snap.Stages)
		}
		for _, st := range snap.Stages {
			if st.FirstNanos > st.LastNanos || st.LastNanos > snap.TotalNanos {
				t.Errorf("site %s: stage %s extent [%d, %d] outside the request (%d)", site, st.Stage, st.FirstNanos, st.LastNanos, snap.TotalNanos)
			}
		}
	}
}

// TestTracerBalancedUnderCancellation cancels from inside the fill and
// checks the same balance: the fold fails with the context's error, and the
// trace carries the substrate span plus the interrupted fill's partial phase
// time, every stage inside the request's extent.
func TestTracerBalancedUnderCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s1, s2 := randSeq(rng, 48), randSeq(rng, 48)
	tr := itrace.New("cancelled", "fold")
	ctx, cancel := context.WithCancel(itrace.NewContext(context.Background(), tr))
	defer cancel()
	midFill := withTriangleHook(func(i1, j1 int) {
		if j1-i1 == 24 {
			cancel()
		}
	})
	_, err := FoldContext(ctx, s1, s2, midFill, WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fold = %v, want context.Canceled", err)
	}
	tr.Finish(499)
	snap := tr.Snapshot()
	stages := stageNames(snap)
	if st := stages["substrate"]; st.Count != 1 {
		t.Errorf("substrate stage = %+v, want one span", st)
	}
	for _, name := range []string{"accumulate", "finalize"} {
		if st := stages[name]; st.Count != 1 || st.BusyNanos <= 0 {
			t.Errorf("cancelled fill lost its partial %s time: %+v", name, snap.Stages)
		}
	}
	for _, st := range snap.Stages {
		if st.LastNanos > snap.TotalNanos {
			t.Errorf("stage %s recorded past Finish: %+v", st.Stage, st)
		}
	}
}

// TestTracedBatchSharesOneTrace runs a batch under one context trace and
// checks the concurrent workers' spans all accumulate into it without
// tearing (the -race run in CI is the real assertion; here we check the
// units add up).
func TestTracedBatchSharesOneTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Name: "it", Seq1: randSeq(rng, 24), Seq2: randSeq(rng, 24)}
	}
	tr := itrace.New("batch", "batch")
	ctx := itrace.NewContext(context.Background(), tr)
	for _, br := range FoldBatchContext(ctx, items, 4) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}
	tr.Finish(200)
	snap := tr.Snapshot()
	stages := stageNames(snap)
	q, ok := stages["queue"]
	if !ok || q.Count != int64(len(items)) {
		t.Errorf("queue spans = %+v, want one per item", q)
	}
	var solverSpans int64
	for _, name := range []string{"substrate", "accumulate", "finalize", "triangle"} {
		if st, ok := stages[name]; ok {
			solverSpans += st.Count
		}
	}
	if solverSpans == 0 {
		t.Errorf("batch recorded no solver spans: %v", snap.Stages)
	}
}
