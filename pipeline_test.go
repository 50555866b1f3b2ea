package bpmax

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
)

const (
	pSeq1 = "GGGAAACCCUUUGGGAAACCC"
	pSeq2 = "GGGUUUCCCAAAGGGUUUCCC"
)

// --- Cache layer ---

// TestCachedFoldBitIdentical is the acceptance gate: a fold served from the
// result cache is bit-identical to the cold fold that filled it.
func TestCachedFoldBitIdentical(t *testing.T) {
	want, err := Fold(pSeq1, pSeq2)
	if err != nil {
		t.Fatalf("cold Fold: %v", err)
	}
	c := NewCache(CacheConfig{})
	cold, err := Fold(pSeq1, pSeq2, WithCache(c))
	if err != nil {
		t.Fatalf("cache-miss Fold: %v", err)
	}
	warm, err := Fold(pSeq1, pSeq2, WithCache(c))
	if err != nil {
		t.Fatalf("cache-hit Fold: %v", err)
	}
	for name, got := range map[string]*Result{"miss": cold, "hit": warm} {
		if got.Score != want.Score {
			t.Errorf("%s score = %v, want %v", name, got.Score, want.Score)
		}
		gs, ws := got.Structure(), want.Structure()
		if gs.Bracket1 != ws.Bracket1 || gs.Bracket2 != ws.Bracket2 || len(gs.Inter) != len(ws.Inter) {
			t.Errorf("%s structure = %q/%q (%d inter), want %q/%q (%d inter)",
				name, gs.Bracket1, gs.Bracket2, len(gs.Inter), ws.Bracket1, ws.Bracket2, len(ws.Inter))
		}
		if got.N1 != want.N1 || got.N2 != want.N2 || got.TableBytes != want.TableBytes {
			t.Errorf("%s shape = %d/%d/%d bytes, want %d/%d/%d", name, got.N1, got.N2, got.TableBytes, want.N1, want.N2, want.TableBytes)
		}
	}
	st := c.Stats()
	if st.ResultMisses != 1 || st.ResultHits != 1 {
		t.Errorf("result counters = %d misses, %d hits; want 1, 1", st.ResultMisses, st.ResultHits)
	}
	if st.SubstrateMisses != 2 {
		t.Errorf("substrate misses = %d, want 2 (one per strand)", st.SubstrateMisses)
	}
	if st.RetainedBytes <= 0 || st.Entries <= 0 {
		t.Errorf("retention = %d bytes, %d entries; want positive", st.RetainedBytes, st.Entries)
	}
	if c.RetainedBytes() != st.RetainedBytes {
		t.Errorf("RetainedBytes() = %d, Stats says %d", c.RetainedBytes(), st.RetainedBytes)
	}
}

// TestCachedFoldDistinguishesOptions: requests that differ in anything
// observable — weights, variant, hairpin constraint — must not share results.
func TestCachedFoldDistinguishesOptions(t *testing.T) {
	c := NewCache(CacheConfig{})
	base, err := Fold(pSeq1, pSeq2, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	unit, err := Fold(pSeq1, pSeq2, WithCache(c), WithWeights(Weights{Unit: true}))
	if err != nil {
		t.Fatal(err)
	}
	wantUnit, err := Fold(pSeq1, pSeq2, WithWeights(Weights{Unit: true}))
	if err != nil {
		t.Fatal(err)
	}
	if unit.Score != wantUnit.Score {
		t.Errorf("unit-weight cached score = %v, want %v", unit.Score, wantUnit.Score)
	}
	if st := c.Stats(); st.ResultHits != 0 || st.ResultMisses != 2 {
		t.Errorf("counters = %d hits, %d misses; want 0 hits, 2 misses (different keys)", st.ResultHits, st.ResultMisses)
	}
	_ = base
}

// TestSubstrateCacheSharedAcrossPairs: the per-strand layer serves any fold
// that reuses a strand, independent of the partner.
func TestSubstrateCacheSharedAcrossPairs(t *testing.T) {
	c := NewCache(CacheConfig{DisableResults: true})
	want1, _ := Fold(pSeq1, pSeq2)
	want2, _ := Fold(pSeq1, "GGGCGCAAUACGC")
	got1, err := Fold(pSeq1, pSeq2, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Fold(pSeq1, "GGGCGCAAUACGC", WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if got1.Score != want1.Score || got2.Score != want2.Score {
		t.Errorf("scores = %v/%v, want %v/%v", got1.Score, got2.Score, want1.Score, want2.Score)
	}
	st := c.Stats()
	if st.SubstrateHits != 1 || st.SubstrateMisses != 3 {
		t.Errorf("substrate counters = %d hits, %d misses; want 1, 3 (strand 1 shared)", st.SubstrateHits, st.SubstrateMisses)
	}
	if st.ResultMisses != 0 && st.ResultHits != 0 {
		t.Errorf("result layer served with DisableResults: %+v", st)
	}
}

// TestCachedFoldReleaseSafety: releasing a cache-hit result (pooled or not)
// must not poison the retained master — later hits stay correct.
func TestCachedFoldReleaseSafety(t *testing.T) {
	want, _ := Fold(pSeq1, pSeq2)
	c := NewCache(CacheConfig{})
	pool := NewPool()
	for i := 0; i < 4; i++ {
		res, err := Fold(pSeq1, pSeq2, WithCache(c), WithPool(pool))
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
		if res.Score != want.Score {
			t.Fatalf("fold %d score = %v, want %v (master poisoned by a Release?)", i, res.Score, want.Score)
		}
		s := res.Structure()
		if s.Bracket1 != want.Structure().Bracket1 {
			t.Fatalf("fold %d structure diverged after Release", i)
		}
		res.Release()
		res.Release() // idempotent
	}
	if st := c.Stats(); st.ResultHits != 3 || st.ResultMisses != 1 {
		t.Errorf("counters = %d hits, %d misses; want 3, 1", st.ResultHits, st.ResultMisses)
	}
}

// TestCachedFoldSingleFlight: concurrent identical requests produce exactly
// one solve and one traceback; every caller gets the same (bit-identical)
// answer and the master's one shared Structure, which outlives the Release
// of the copy it was read through. Run with -race this also exercises the
// cache's and the shared structure's synchronization.
func TestCachedFoldSingleFlight(t *testing.T) {
	want, _ := Fold(pSeq1, pSeq2)
	c := NewCache(CacheConfig{})
	pool := NewPool()
	const n = 8
	var wg sync.WaitGroup
	scores := make([]float32, n)
	structs := make([]*Structure, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Fold(pSeq1, pSeq2, WithCache(c), WithPool(pool))
			if err != nil {
				errs[i] = err
				return
			}
			scores[i] = res.Score
			structs[i] = res.Structure()
			res.Release()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fold %d: %v", i, errs[i])
		}
		if scores[i] != want.Score {
			t.Fatalf("fold %d score = %v, want %v", i, scores[i], want.Score)
		}
		if structs[i] != structs[0] {
			t.Fatalf("fold %d traced its own structure: hits must share the master's", i)
		}
	}
	if st, ws := structs[0], want.Structure(); st.Bracket1 != ws.Bracket1 || st.Bracket2 != ws.Bracket2 {
		t.Errorf("shared structure %s / %s, cold fold %s / %s", st.Bracket1, st.Bracket2, ws.Bracket1, ws.Bracket2)
	}
	st := c.Stats()
	if st.ResultMisses != 1 {
		t.Errorf("result misses = %d, want 1 (one leader, one solve)", st.ResultMisses)
	}
	if st.ResultHits+st.SingleFlightShared != n-1 {
		t.Errorf("hits %d + shared %d = %d, want %d", st.ResultHits, st.SingleFlightShared,
			st.ResultHits+st.SingleFlightShared, n-1)
	}
}

// TestCacheEviction: a byte budget evicts least-recently-used entries and
// the stats say so.
func TestCacheEviction(t *testing.T) {
	// Measure one fold's retained cost, then budget for roughly one and a
	// half folds: three distinct pairs must evict.
	probe := NewCache(CacheConfig{})
	r0, err := Fold(pSeq1, pSeq2, WithCache(probe))
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.RetainedBytes() * 3 / 2
	if budget <= 0 {
		t.Fatal("probe cache retained nothing; test premise broken")
	}
	c := NewCache(CacheConfig{MaxBytes: budget})
	pairs := [][2]string{
		{pSeq1, pSeq2},
		{"GGGCGCAAUACGCAUUACGC", "GCGUAUUGCGCGUAUUGCGC"},
		{"AAGGGGCCCCAAAAGGGGCC", "GGCCCCUUUUGGGGCCCCUU"},
	}
	for _, p := range pairs {
		if _, err := Fold(p[0], p[1], WithCache(c)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget (retained %d)", budget, st.RetainedBytes)
	}
	if st.RetainedBytes > budget {
		t.Fatalf("retained %d bytes over the %d budget", st.RetainedBytes, budget)
	}
	if st.RetainedHighWater < st.RetainedBytes {
		t.Fatalf("high-water %d below current retention %d", st.RetainedHighWater, st.RetainedBytes)
	}
	// Evicted entries simply refill; correctness is unaffected.
	again, err := Fold(pSeq1, pSeq2, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if again.Score != r0.Score {
		t.Fatalf("score after eviction churn = %v, want %v", again.Score, r0.Score)
	}
}

// TestCacheChargedAgainstMemoryLimit: the cache's retained bytes consume
// WithMemoryLimit headroom, pushing a fold that would otherwise fit its full
// table down the degradation ladder.
func TestCacheChargedAgainstMemoryLimit(t *testing.T) {
	c := NewCache(CacheConfig{DisableResults: true})
	if _, err := Fold(pSeq1, pSeq2, WithCache(c)); err != nil {
		t.Fatal(err)
	}
	retained := c.RetainedBytes()
	if retained <= 0 {
		t.Fatal("cache retained nothing; test premise broken")
	}
	base := EstimateBytes(len(pSeq1), len(pSeq2))
	limit := base + retained - 1
	// Without the cache the box layout fits the limit outright.
	plain, err := Fold(pSeq1, pSeq2, WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("uncached fold: %v", err)
	}
	if plain.Degradation != DegradeNone {
		t.Fatalf("uncached degradation = %v, want none", plain.Degradation)
	}
	// With the cache charged on top, the box charge exceeds the limit and
	// the fold degrades to the packed map (which still fits).
	charged, err := Fold(pSeq1, pSeq2, WithCache(c), WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("cached fold: %v", err)
	}
	if charged.Degradation != DegradePacked {
		t.Fatalf("cached degradation = %v, want packed (cache retention charged)", charged.Degradation)
	}
	if charged.Score != plain.Score {
		t.Fatalf("degraded score = %v, want %v", charged.Score, plain.Score)
	}
}

// TestInstrumentedFoldHitsResultCache: WithMetrics only aggregates — it does
// not shape the plan. The second identical WithCache+WithMetrics fold is a
// result hit, the aggregate counts the one fill that ran, and the hit's
// Result.Metrics is the record of that fill (the retained master's).
func TestInstrumentedFoldHitsResultCache(t *testing.T) {
	c := NewCache(CacheConfig{})
	m := NewMetrics()
	master, err := Fold(pSeq1, pSeq2, WithCache(c), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if master.Metrics.FillNanos <= 0 || master.Metrics.Schedule == "" {
		t.Fatalf("cold fold has no record: %+v", master.Metrics)
	}
	hit, err := Fold(pSeq1, pSeq2, WithCache(c), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResultHits != 1 || st.ResultMisses != 1 {
		t.Errorf("result hits/misses = %d/%d, want 1/1 (WithMetrics must not bypass the result layer)", st.ResultHits, st.ResultMisses)
	}
	if hit.Metrics != master.Metrics {
		t.Errorf("hit's Metrics = %+v, want the master's %+v", hit.Metrics, master.Metrics)
	}
	if snap := m.Snapshot(); snap.Folds != 1 || snap.FoldNanos.Count != 1 || snap.Errors != 0 {
		t.Errorf("aggregate folds=%d fill-histogram count=%d errors=%d, want 1, 1, 0 (a hit ran no fill)", snap.Folds, snap.FoldNanos.Count, snap.Errors)
	}
}

// TestWindowedScanSubstrateCache: scans share the same per-strand entries as
// folds and stay bit-identical when served from them.
func TestWindowedScanSubstrateCache(t *testing.T) {
	want, err := ScanWindowed(pSeq1, pSeq2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	cold, err := ScanWindowed(pSeq1, pSeq2, 6, 6, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ScanWindowed(pSeq1, pSeq2, 6, 6, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*WindowResult{"cold": cold, "warm": warm} {
		if got.Best != want.Best || got.I1 != want.I1 || got.J2 != want.J2 {
			t.Errorf("%s scan = %v @ (%d,%d)/(%d,%d), want %v @ (%d,%d)/(%d,%d)",
				name, got.Best, got.I1, got.J1, got.I2, got.J2, want.Best, want.I1, want.J1, want.I2, want.J2)
		}
	}
	if st := c.Stats(); st.SubstrateHits != 2 || st.SubstrateMisses != 2 {
		t.Errorf("substrate counters = %d hits, %d misses; want 2, 2", st.SubstrateHits, st.SubstrateMisses)
	}
}

// TestFoldSingleCached: single-strand folds use (and fill) the same
// substrate entries as interaction folds.
func TestFoldSingleCached(t *testing.T) {
	want, err := FoldSingle(pSeq1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	cold, err := FoldSingle(pSeq1, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FoldSingle(pSeq1, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Score != want.Score || warm.Score != want.Score ||
		cold.Bracket != want.Bracket || warm.Bracket != want.Bracket {
		t.Errorf("cached single folds = %v %q / %v %q, want %v %q",
			cold.Score, cold.Bracket, warm.Score, warm.Bracket, want.Score, want.Bracket)
	}
	if st := c.Stats(); st.SubstrateHits != 1 || st.SubstrateMisses != 1 {
		t.Errorf("substrate counters = %d hits, %d misses; want 1, 1", st.SubstrateHits, st.SubstrateMisses)
	}
	// An interaction fold of the same strand now hits the entry it left.
	if _, err := Fold(pSeq1, pSeq2, WithCache(c)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.SubstrateHits != 2 {
		t.Errorf("substrate hits after interaction fold = %d, want 2 (strand shared across entry points)", st.SubstrateHits)
	}
}

// TestSubstrateCacheZeroAllocSteadyState is the satellite acceptance gate:
// a pooled fold whose substrates hit the cache allocates no more than the
// pooled steady state without a cache (which is zero).
func TestSubstrateCacheZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short")
	}
	// Same stabilization as TestMetricsZeroAllocSteadyState: settle the
	// heap and hold GC off so no mid-window sync.Pool refill is charged to
	// either variant.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// run measures single cycles and returns their mean allocation count
	// with the standard error of that mean.
	run := func(extra ...Option) (mean, sem float64) {
		e := NewEngine(2)
		defer e.Close()
		opts := append([]Option{WithEngine(e), WithPool(NewPool()), WithWorkers(2)}, extra...)
		cycle := func() {
			res, err := Fold(pSeq1, pSeq2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		cycle() // warm the pool (and the cache, when present)
		const cycles = 50
		var sum, squares float64
		for range cycles {
			a := testing.AllocsPerRun(1, cycle)
			sum += a
			squares += a * a
		}
		mean = sum / cycles
		return mean, math.Sqrt(max(squares/cycles-mean*mean, 0) / cycles)
	}
	off, offSEM := run()
	on, onSEM := run(WithCache(NewCache(CacheConfig{DisableResults: true})))
	// One alloc of absolute slack for an occasional stray (sync.Pool
	// victim-cache refill, GC timing; same policy as benchgate's zero-alloc
	// gates), plus four standard errors of the difference. A normal build
	// reads the same count every cycle, so the second term is zero there.
	// Under -race sync.Pool drops a quarter of its Puts and a cycle reads
	// anywhere from 4 to 45 allocations on either side; the term is then a
	// few allocations, which is all that build can resolve.
	slack := 1 + 4*math.Hypot(offSEM, onSEM)
	if on > off+slack {
		t.Errorf("substrate-cached allocs/op = %.2f, uncached = %.2f (slack %.2f); a cache hit must not allocate", on, off, slack)
	}
}

// TestWarmSingleFoldAllocation: a warm session's 1024-nt FoldSingle builds
// its S table in pooled storage, unzeroed, from the strand's four weight
// rows, so an op allocates at most 128 KiB — not the 4.4 MB S table and 4 MB
// pair table a fresh build would. The median op is gated: sync.Pool keeps
// the one table in the private slot of the P that put it back, so an op
// whose goroutine moved to another P misses and allocates a table.
func TestWarmSingleFoldAllocation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting in -short, and under -race, where sync.Pool drops Puts")
	}
	s, err := NewSession(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seq := randSeq(rand.New(rand.NewSource(38)), 1024)
	fold := func() {
		if _, err := s.FoldSingle(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	fold() // warm the pool
	// No GC empties the pool mid-run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	per := make([]uint64, 7)
	for i := range per {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fold()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	t.Logf("warm 1024-nt FoldSingle: bytes an op %v", per)
	if median := per[len(per)/2]; median > 128<<10 {
		t.Errorf("warm 1024-nt FoldSingle allocates %d KiB in the median op, want at most 128", median>>10)
	}
}

// --- Admission layer ---

// TestAdmissionFoldQueueFull: beyond the queue bound, folds are rejected
// immediately with the typed error.
func TestAdmissionFoldQueueFull(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	if err := a.a.Acquire(context.Background()); err != nil { // occupy the slot
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := Fold(pSeq1, pSeq2, WithAdmission(a))
		queued <- err
	}()
	waitForQueue(t, a, 1)
	m := NewMetrics()
	_, err := Fold(pSeq1, pSeq2, WithAdmission(a), WithMetrics(m))
	var ae *AdmissionError
	if !errors.As(err, &ae) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Fold = %v, want *AdmissionError wrapping ErrQueueFull", err)
	}
	if got := m.Snapshot().Errors; got != 1 {
		t.Errorf("metrics errors = %d, want 1 (rejection recorded)", got)
	}
	a.a.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued fold: %v", err)
	}
	st := a.Stats()
	if st.Rejected != 1 || st.Admitted < 2 {
		t.Errorf("stats = %d rejected, %d admitted; want 1, >= 2", st.Rejected, st.Admitted)
	}
}

// TestAdmissionFoldDeadline: a fold whose context expires while queued fails
// fast with a typed error carrying the context cause.
func TestAdmissionFoldDeadline(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	if err := a.a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.a.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := FoldContext(ctx, pSeq1, pSeq2, WithAdmission(a))
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("FoldContext = %v, want *AdmissionError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want context.DeadlineExceeded", err)
	}
	if ae.Waited <= 0 {
		t.Errorf("Waited = %v, want positive", ae.Waited)
	}
	if st := a.Stats(); st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
}

// TestAdmissionGatesEveryEntryPoint: the same gate bounds folds, scans,
// single-strand folds and ensembles.
func TestAdmissionGatesEveryEntryPoint(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	opts := []Option{WithAdmission(a)}
	if _, err := Fold("GGGAAACCC", "GGGUUUCCC", opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 4, 4, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := FoldSingle("GGGAAACCC", opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := SingleEnsemble("GGGAAACCC", 1.0, opts...); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Admitted != 4 {
		t.Errorf("admitted = %d, want 4 (one per entry point)", st.Admitted)
	}
	if st.Running != 0 {
		t.Errorf("running = %d after completion, want 0 (slots returned)", st.Running)
	}
}

// TestAdmissionConcurrentFolds runs a contended workload through a narrow
// gate; with -race this exercises the gate's synchronization end to end.
func TestAdmissionConcurrentFolds(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	want, _ := Fold(pSeq1, pSeq2)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Fold(pSeq1, pSeq2, WithAdmission(a))
			if err != nil {
				t.Errorf("Fold: %v", err)
				return
			}
			if res.Score != want.Score {
				t.Errorf("score = %v, want %v", res.Score, want.Score)
			}
		}()
	}
	wg.Wait()
	st := a.Stats()
	if st.Admitted != n || st.Running != 0 || st.QueueDepth != 0 {
		t.Errorf("stats = %d admitted, %d running, %d queued; want %d, 0, 0", st.Admitted, st.Running, st.QueueDepth, n)
	}
}

// waitForQueue spins until the gate's queue reaches depth.
func waitForQueue(t *testing.T, a *Admission, depth int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueueDepth < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d", depth)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// --- Session facade ---

func TestSessionFoldParity(t *testing.T) {
	want, _ := Fold(pSeq1, pSeq2)
	s, err := NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		res, err := s.Fold(context.Background(), pSeq1, pSeq2)
		if err != nil {
			t.Fatalf("session fold %d: %v", i, err)
		}
		if res.Score != want.Score {
			t.Fatalf("session fold %d score = %v, want %v", i, res.Score, want.Score)
		}
		res.Release()
	}
	st := s.Stats()
	if st.Engine == nil || st.Pool == nil {
		t.Fatal("session stats missing the owned engine/pool sections")
	}
	if st.Cache != nil || st.Admission != nil || st.Folds != 0 {
		t.Error("session stats has sections for components it was not given")
	}
	// sync.Pool drops Puts at random under -race, so three folds need not
	// reuse a shell there.
	if !raceEnabled && st.Pool.ResultHits == 0 {
		t.Error("pooled session folds recorded no shell reuse")
	}
}

func TestSessionWithComponents(t *testing.T) {
	c := NewCache(CacheConfig{})
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	m := NewMetrics()
	s, err := NewSession(WithCache(c), WithAdmission(a), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		res, err := s.Fold(context.Background(), pSeq1, pSeq2)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	st := s.Stats()
	if st.Cache == nil || st.Admission == nil {
		t.Fatal("session stats missing configured component sections")
	}
	if st.Admission.Admitted != 3 {
		t.Errorf("admitted = %d, want 3", st.Admission.Admitted)
	}
	// The aggregate counts the one fill that ran; the repeats are result
	// hits whether or not the session aggregates.
	if st.Cache.ResultHits != 2 {
		t.Errorf("result hits = %d, want 2", st.Cache.ResultHits)
	}
	if st.Folds != 1 {
		t.Errorf("metrics folds = %d, want 1", st.Folds)
	}
}

func TestSessionEntryPoints(t *testing.T) {
	s, err := NewSession(WithCache(NewCache(CacheConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wantScan, _ := ScanWindowed(pSeq1, pSeq2, 5, 5)
	scan, err := s.ScanWindowed(context.Background(), pSeq1, pSeq2, 5, 5)
	if err != nil || scan.Best != wantScan.Best {
		t.Errorf("session scan = %v, %v; want %v", scan.Best, err, wantScan.Best)
	}
	wantSingle, _ := FoldSingle(pSeq1)
	single, err := s.FoldSingle(context.Background(), pSeq1)
	if err != nil || single.Score != wantSingle.Score {
		t.Errorf("session single = %v, %v; want %v", single.Score, err, wantSingle.Score)
	}
	wantEns, _ := SingleEnsemble(pSeq1, 1.0)
	ens, err := s.SingleEnsemble(pSeq1, 1.0)
	if err != nil || ens.LogZ != wantEns.LogZ {
		t.Errorf("session ensemble = %v, %v; want %v", ens.LogZ, err, wantEns.LogZ)
	}
	items := []BatchItem{{Name: "a", Seq1: pSeq1, Seq2: pSeq2}, {Name: "b", Seq1: pSeq2, Seq2: pSeq1}}
	wantBatch := FoldBatch(items, 2)
	batch := s.FoldBatch(context.Background(), items, 2)
	for i := range batch {
		if batch[i].Err != nil {
			t.Fatalf("session batch item %d: %v", i, batch[i].Err)
		}
		if batch[i].Result.Score != wantBatch[i].Result.Score {
			t.Errorf("session batch item %d score = %v, want %v", i, batch[i].Result.Score, wantBatch[i].Result.Score)
		}
	}
}

func TestSessionUnknownVariant(t *testing.T) {
	if _, err := NewSession(WithVariant(Variant("bogus"))); err == nil {
		t.Fatal("NewSession accepted an unknown variant")
	}
}

func TestSessionCloseIdempotentAndBorrowedEngine(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	s, err := NewSession(WithEngine(e))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	// The caller's engine survives the session.
	if _, err := Fold("GGGAAACCC", "GGGUUUCCC", WithEngine(e)); err != nil {
		t.Fatalf("engine unusable after session close: %v", err)
	}
}
