// The cache step's contract (cacheDo): every cached kind — a strand's S
// table, its Boltzmann table, a result — takes the same breaker → probe →
// join → lead → retain path, so concurrent requests sharing a key pay one
// build, a joiner honours its own deadline, and a key whose builds keep dying
// opens its breaker. Fault registry state is global, so no test here calls
// t.Parallel.

package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/bpmax-go/bpmax/internal/fault"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
)

// concurrently runs f(0..n-1) on n goroutines released together and waits
// for all of them.
func concurrently(n int, f func(i int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f(i)
		}()
	}
	close(start)
	wg.Wait()
}

// TestStrandBuildSingleFlight: N concurrent single-strand folds of one strand
// through one cache build its S table once; the rest hit or join, and a
// joiner's trace says so — its wall time is singleflight-wait, not substrate.
func TestStrandBuildSingleFlight(t *testing.T) {
	seq := randSeq(rand.New(rand.NewSource(27)), 700)
	want, err := FoldSingle(seq)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	const n = 8
	errs := make([]error, n)
	traces := make([]*itrace.Trace, n)
	concurrently(n, func(i int) {
		traces[i] = itrace.New("single", "single")
		res, err := FoldSingleContext(itrace.NewContext(context.Background(), traces[i]), seq, WithCache(c))
		if err == nil && (res.Score != want.Score || res.Bracket != want.Bracket) {
			err = errors.New("shared table folded differently from a cold fold")
		}
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.SubstrateMisses != 1 {
		t.Errorf("substrate misses = %d, want 1 (one leader, one O(n³) build)", st.SubstrateMisses)
	}
	if st.SubstrateHits+st.SingleFlightShared != n-1 {
		t.Errorf("hits %d + shared %d, want %d", st.SubstrateHits, st.SingleFlightShared, n-1)
	}
	// Each request's table came from exactly one of build / join / hit, and
	// the ledger closes: no stage's busy time exceeds the request.
	var led, joined, hit int64
	for _, tr := range traces {
		tr.Finish(200)
		snap := tr.Snapshot()
		stages := stageNames(snap)
		served := 0
		for name, tally := range map[string]*int64{"substrate": &led, "singleflight-wait": &joined, "cache-hit": &hit} {
			if _, ok := stages[name]; ok {
				served++
				*tally++
			}
		}
		if served != 1 {
			t.Errorf("request served by %d of substrate/singleflight-wait/cache-hit, want exactly 1: %+v", served, snap.Stages)
		}
		var busy int64
		for _, s := range snap.Stages {
			busy += s.BusyNanos
		}
		if busy > snap.TotalNanos {
			t.Errorf("stages sum to %d ns of a %d ns request (other < 0): %+v", busy, snap.TotalNanos, snap.Stages)
		}
	}
	if led != 1 || joined != st.SingleFlightShared || hit != st.SubstrateHits {
		t.Errorf("traces say led %d joined %d hit %d; counters say 1, %d, %d", led, joined, hit, st.SingleFlightShared, st.SubstrateHits)
	}
}

// TestPartitionStrandBuildSingleFlight: the Boltzmann tables take the same
// step. Concurrent partition folds of one query against distinct targets
// build every strand's S and Q entry once, and the query's range-guard trip —
// which happens inside that one build — is counted once.
func TestPartitionStrandBuildSingleFlight(t *testing.T) {
	query := randSeq(rand.New(rand.NewSource(28)), 150)
	// Targets too short to pair (nothing to trip the guard on), each distinct.
	targets := []string{"A", "C", "G", "U", "AA", "CC"}
	n := len(targets)
	c := NewCache(CacheConfig{})
	m := NewMetrics()
	errs := make([]error, n)
	concurrently(n, func(i int) {
		res, err := Fold(query, targets[i], WithCache(c), WithMetrics(m),
			WithAlgebra(AlgebraPartition), WithKT(0.001))
		if err == nil {
			res.Release()
		}
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
	}
	st := c.Stats()
	// Keys: the query's S and Q, and an S and a Q per target.
	if want := int64(2 + 2*n); st.SubstrateMisses != want {
		t.Errorf("substrate misses = %d, want %d (every strand table built once)", st.SubstrateMisses, want)
	}
	if want := int64(2 * (n - 1)); st.SubstrateHits+st.SingleFlightShared != want {
		t.Errorf("hits %d + shared %d, want %d (the query's two tables, for every fold but the leader's)",
			st.SubstrateHits, st.SingleFlightShared, want)
	}
	if got := m.Snapshot().PartitionFallbacks; got != 1 {
		t.Errorf("partition_guard_fallbacks = %d, want 1 (the query's one Boltzmann build)", got)
	}
}

// TestBatchBuildsQueryTableOnce: a cold screen of one query against many
// targets builds the query's S table once, whichever items reach it first.
func TestBatchBuildsQueryTableOnce(t *testing.T) {
	query := randSeq(rand.New(rand.NewSource(29)), 300)
	targets := []string{"AC", "CG", "GU", "UA", "AA", "CC", "GG", "UU"}
	n := len(targets)
	items := make([]BatchItem, n)
	for i, target := range targets {
		items[i] = BatchItem{Name: target, Seq1: query, Seq2: target}
	}
	c := NewCache(CacheConfig{DisableResults: true})
	for _, r := range FoldBatch(items, 4, WithCache(c)) {
		if r.Err != nil {
			t.Fatalf("item %s: %v", r.Name, r.Err)
		}
	}
	st := c.Stats()
	if want := int64(1 + n); st.SubstrateMisses != want {
		t.Errorf("substrate misses = %d, want %d (the query once, each target once)", st.SubstrateMisses, want)
	}
	if want := int64(n - 1); st.SubstrateHits+st.SingleFlightShared != want {
		t.Errorf("hits %d + shared %d, want %d", st.SubstrateHits, st.SingleFlightShared, want)
	}
}

// tiledStrand is long enough that its S build runs tiled on the engine, so
// the engine-iter failpoint reaches it.
func tiledStrand(seed int64) string { return randSeq(rand.New(rand.NewSource(seed)), 1300) }

// waitFired blocks until the site has injected at least once.
func waitFired(t *testing.T, site fault.Site) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fault.Snapshot().Sites[string(site)] == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("failpoint %s never fired", site)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinerHonoursItsOwnDeadline: a request parked behind another's strand
// build returns its own ctx.Err() as soon as its deadline passes; the leader
// is not disturbed, retains its table, and the next request hits it.
func TestJoinerHonoursItsOwnDeadline(t *testing.T) {
	defer fault.Reset()
	seq := tiledStrand(30)
	c := NewCache(CacheConfig{})
	opts := []Option{WithCache(c), WithWorkers(2)}
	// The leader stalls inside its build, once, long enough for the joiner to
	// arrive, park and time out.
	const stall = 400 * time.Millisecond
	if err := fault.Arm(fault.SiteEngineIter, fault.Trigger{Mode: fault.ModeDelay, Delay: stall, Once: true}); err != nil {
		t.Fatal(err)
	}
	leader := make(chan error, 1)
	go func() {
		_, err := FoldSingle(seq, opts...)
		leader <- err
	}()
	waitFired(t, fault.SiteEngineIter)

	tr := itrace.New("joiner", "single")
	ctx, cancel := context.WithTimeout(itrace.NewContext(context.Background(), tr), 20*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := FoldSingleContext(ctx, seq, opts...)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked joiner: err = %v, want context.DeadlineExceeded", err)
	}
	if stages := stageNames(tr.Snapshot()); stages["singleflight-wait"].Count != 1 || stages["substrate"].Count != 0 {
		t.Errorf("timed-out joiner's trace = %+v, want its time under singleflight-wait", stages)
	}
	if waited := time.Since(begin); waited > stall/2 {
		t.Errorf("joiner returned after %v; its 20ms deadline must not wait for the leader's build", waited)
	}
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if _, err := FoldSingle(seq, opts...); err != nil {
		t.Fatal(err)
	}
	// One build in all: the joiner built nothing, the third call hit.
	if st := c.Stats(); st.SubstrateMisses != 1 || st.SubstrateHits != 1 || st.SingleFlightShared != 0 {
		t.Errorf("misses %d hits %d shared %d, want 1, 1, 0", st.SubstrateMisses, st.SubstrateHits, st.SingleFlightShared)
	}
}

// TestStrandBuildPanicOpensBreaker: a strand-build leader that panics fails
// typed, wakes whoever joined it, retains nothing, and counts against its
// key like a result leader's death — two in a row open the breaker, after
// which the strand is built cold.
func TestStrandBuildPanicOpensBreaker(t *testing.T) {
	defer fault.Reset()
	seq := tiledStrand(31)
	c := NewCache(CacheConfig{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	opts := []Option{WithCache(c), WithWorkers(2)}
	if err := fault.Arm(fault.SiteEngineIter, fault.Trigger{Mode: fault.ModePanic, Every: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	errs := make([]error, n)
	concurrently(n, func(i int) { _, errs[i] = FoldSingle(seq, opts...) })
	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("caller %d: err = %v, want *PanicError (each leads in turn once its leader died)", i, err)
		}
	}
	st := c.Stats()
	if st.BreakerOpens < 1 || st.BreakerOpenKeys != 1 {
		t.Errorf("breaker opens %d, open keys %d after %d leader panics; want >= 1 and 1", st.BreakerOpens, st.BreakerOpenKeys, n)
	}
	if st.Entries != 0 || st.SubstrateMisses != 0 {
		t.Errorf("a failed build was retained or counted: entries %d, misses %d", st.Entries, st.SubstrateMisses)
	}
	// Fault cleared, breaker still open: the strand folds, cold.
	fault.Disarm(fault.SiteEngineIter)
	want, err := FoldSingle(seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FoldSingle(seq, opts...)
	if err != nil {
		t.Fatalf("fold behind the open breaker: %v", err)
	}
	if got.Score != want.Score {
		t.Errorf("cold-bypass score = %v, want %v", got.Score, want.Score)
	}
	if st := c.Stats(); st.BreakerBypasses < 1 || st.Entries != 0 {
		t.Errorf("bypasses %d, entries %d; an open key is built cold and not retained", st.BreakerBypasses, st.Entries)
	}
}

// TestPooledSingleTableNeverCached: a single-strand fold builds its S table
// in the session pool's storage and hands it back after the traceback, so
// what a cache retains must be a clone. Folding A, B, B, A, A through one
// session with a cache — one caller, then two at once — must give every
// answer an uncached session gives; a cache entry aliasing pooled storage
// would read the next strand's cells (and its traceback get stuck).
func TestPooledSingleTableNeverCached(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	a, b := randSeq(rng, 300), randSeq(rng, 170)
	plain, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want := map[string]*SingleResult{}
	for _, s := range []string{a, b} {
		if want[s], err = plain.FoldSingle(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	cached, err := NewSession(WithCache(NewCache(CacheConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	order := []string{a, b, b, a, a}
	check := func(caller, k int) error {
		got, err := cached.FoldSingle(context.Background(), order[k])
		if err != nil {
			return err
		}
		if w := want[order[k]]; got.Score != w.Score || got.Bracket != w.Bracket {
			return fmt.Errorf("caller %d, fold %d: score %v %s, uncached %v %s", caller, k, got.Score, got.Bracket, w.Score, w.Bracket)
		}
		return nil
	}
	for k := range order {
		if err := check(0, k); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, 2)
	concurrently(2, func(i int) {
		for k := range order {
			if errs[i] = check(i+1, k); errs[i] != nil {
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}
