// Chaos suite: randomized-but-seeded fault schedules driven through the
// full serving spine, asserting the resilience invariants the robustness
// layer promises. Runs under -race in CI (see ci.sh). Fault registry state
// is global, so no test here calls t.Parallel.

package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/bpmax-go/bpmax/internal/fault"
	"github.com/bpmax-go/bpmax/internal/nussinov"
)

// chaosPairs returns deterministic strand pairs for the chaos folds.
func chaosPairs(seed int64, n, len1, len2 int) [][2]string {
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("ACGU")
	mk := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(4)]
		}
		return string(b)
	}
	pairs := make([][2]string, n)
	for i := range pairs {
		pairs[i] = [2]string{mk(len1), mk(len2)}
	}
	return pairs
}

// TestChaosSchedules arms three seeded fault schedules in turn and serves
// concurrent folds through a full session (cache + breaker, admission,
// retry), asserting the chaos invariants:
//
//   - every fold either succeeds with a score bit-identical to the
//     fault-free reference, or fails with a transient (retryable) error —
//     faults never corrupt results or surface as untyped failures;
//   - no goroutine leaks across a schedule;
//   - every admission slot is resolved (nothing running or queued after);
//   - errors are never cached: fault-free refolds through the same session
//     reproduce the reference scores exactly (no dirty pool reuse either —
//     the refolds run through the same pool the faulted folds churned).
func TestChaosSchedules(t *testing.T) {
	defer fault.Reset()
	schedules := []struct {
		name string
		spec string
		seed int64
	}{
		{"leader-substrate-pool", "cache-leader=2*error,substrate=5*error,pool-acquire=3*error", 3},
		{"iterpanic-grant-release", "engine-iter=p0.01/11*panic,admission-grant=4*error,pool-release=once*delay(1ms)", 11},
		{"subpanic-leaderprob-delay", "substrate=once*panic,cache-leader=p0.2/7*error,engine-iter=9*delay(200us)", 7},
	}
	pairs := chaosPairs(42, 3, 10, 14)
	// Fault-free reference scores, computed outside any session.
	ref := make([]float32, len(pairs))
	for i, pr := range pairs {
		res, err := Fold(pr[0], pr[1])
		if err != nil {
			t.Fatalf("reference fold %d: %v", i, err)
		}
		ref[i] = res.Score
		res.Release()
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sess, err := NewSession(
				WithWorkers(2),
				WithCache(NewCache(CacheConfig{BreakerThreshold: 2, BreakerCooldown: time.Millisecond})),
				WithAdmission(NewAdmission(AdmissionConfig{MaxConcurrent: 2})),
				WithRetry(RetryConfig{MaxAttempts: 4, Base: 50 * time.Microsecond, Max: 500 * time.Microsecond, Seed: sc.seed}),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := fault.ArmSpec(sc.spec); err != nil {
				t.Fatalf("ArmSpec(%q): %v", sc.spec, err)
			}
			const workers, perWorker = 4, 12
			errs := make([]error, workers*perWorker)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < perWorker; k++ {
						i := g*perWorker + k
						pr := pairs[i%len(pairs)]
						res, err := sess.Fold(context.Background(), pr[0], pr[1])
						if err != nil {
							errs[i] = err
							continue
						}
						if res.Score != ref[i%len(pairs)] {
							errs[i] = fmt.Errorf("score %v != reference %v (corrupt result)", res.Score, ref[i%len(pairs)])
						}
						res.Release()
					}
				}(g)
			}
			wg.Wait()
			injected := fault.Snapshot().Injected
			fault.Reset()
			if injected == 0 {
				t.Errorf("schedule injected no faults; spec %q exercised nothing", sc.spec)
			}
			failed := 0
			for i, err := range errs {
				if err == nil {
					continue
				}
				failed++
				if !IsTransient(err) {
					t.Errorf("fold %d failed non-transiently under injected faults: %v", i, err)
				}
			}
			t.Logf("schedule %s: %d injections, %d/%d folds failed transiently", sc.name, injected, failed, len(errs))
			// Every admission slot resolved: nothing still running or queued.
			if st := sess.Stats().Admission; st.Running != 0 || st.QueueDepth != 0 {
				t.Errorf("admission not drained: running %d, queued %d", st.Running, st.QueueDepth)
			}
			// Errors never cached, pool never dirtied: fault-free refolds
			// through the same session are bit-identical to the reference.
			for i, pr := range pairs {
				res, err := sess.Fold(context.Background(), pr[0], pr[1])
				if err != nil {
					t.Fatalf("fault-free refold %d failed: %v", i, err)
				}
				if res.Score != ref[i] {
					t.Errorf("refold %d score %v != reference %v", i, res.Score, ref[i])
				}
				res.Release()
			}
			sess.Close()
			expectGoroutines(t, before, "across schedule")
		})
	}
}

// expectGoroutines fails the test if the goroutine count has not settled
// back to before within a grace period.
func expectGoroutines(t *testing.T, before int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked %s: %d -> %d", when, before, now)
	}
}

// TestScopedEngineLeavesNoGoroutines: a bare call asking for width 3 with no
// WithEngine runs on an engine scoped to the call, and however the call ends
// — success, a cancel landing mid-fill, a panic on a worker, an injected
// worker fault — its helpers are joined before it returns.
func TestScopedEngineLeavesNoGoroutines(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(23))
	s1, s2 := randSeq(rng, 12), randSeq(rng, 14)
	// A single-strand build goes parallel only from the cutoff up.
	long := randSeq(rng, nussinov.SequentialCutoff+16)
	entries := []struct {
		name string
		// hooked: the entry point runs the interaction fill, which the
		// triangle hook can poison.
		hooked bool
		call   func(ctx context.Context, opts ...Option) error
	}{
		{"Fold", true, func(ctx context.Context, opts ...Option) error {
			_, err := FoldContext(ctx, s1, s2, opts...)
			return err
		}},
		{"ScanWindowed", true, func(ctx context.Context, opts ...Option) error {
			_, err := ScanWindowedContext(ctx, s1, s2, 8, 8, opts...)
			return err
		}},
		{"FoldSingle", false, func(ctx context.Context, opts ...Option) error {
			_, err := FoldSingleContext(ctx, long, opts...)
			return err
		}},
	}
	for _, en := range entries {
		before := runtime.NumGoroutine()

		if err := en.call(context.Background(), WithWorkers(3)); err != nil {
			t.Fatalf("%s: %v", en.name, err)
		}
		expectGoroutines(t, before, en.name+" after success")

		// Mid-fill cancel: one loop iteration stalls inside the engine, and
		// the cancel is sent once the stall has begun.
		if err := fault.ArmSpec("engine-iter=once*delay(20ms)"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			for fault.Snapshot().Injected == 0 && ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
		}()
		err := en.call(ctx, WithWorkers(3))
		cancel()
		<-watched
		fault.Reset()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-fill: err = %v, want Canceled", en.name, err)
		}
		expectGoroutines(t, before, en.name+" after a mid-fill cancel")

		if en.hooked {
			boom := withTriangleHook(func(i1, j1 int) {
				if i1 == 0 && j1 == 5 {
					panic("injected fault")
				}
			})
			var pe *PanicError
			if err := en.call(context.Background(), WithWorkers(3), boom); !errors.As(err, &pe) {
				t.Errorf("%s with a poisoned triangle: err = %v, want *PanicError", en.name, err)
			}
			expectGoroutines(t, before, en.name+" after a worker panic")
		}

		if err := fault.ArmSpec("engine-iter=once*error"); err != nil {
			t.Fatal(err)
		}
		var fe *FaultError
		if err := en.call(context.Background(), WithWorkers(3)); !errors.As(err, &fe) {
			t.Errorf("%s with engine-iter armed: err = %v, want *FaultError", en.name, err)
		}
		fault.Reset()
		expectGoroutines(t, before, en.name+" after an injected worker fault")
	}
}

// TestRetryRescuesTransientFault: one injected substrate fault, one retry,
// success — and the metrics ledger records exactly that.
func TestRetryRescuesTransientFault(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm(fault.SiteSubstrate, fault.Trigger{Mode: fault.ModeError, Once: true}); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	res, err := Fold("GGGAAACCC", "GGGUUUCCC",
		WithRetry(RetryConfig{MaxAttempts: 3, Base: time.Microsecond, Max: time.Microsecond}),
		WithMetrics(m))
	if err != nil {
		t.Fatalf("retry did not rescue the fold: %v", err)
	}
	res.Release()
	snap := m.Snapshot()
	if snap.Retries != 1 || snap.RetrySuccesses != 1 || snap.RetriesExhausted != 0 {
		t.Errorf("retry ledger = %d/%d/%d, want 1/1/0", snap.Retries, snap.RetrySuccesses, snap.RetriesExhausted)
	}
	if snap.Errors != 1 {
		t.Errorf("failed attempt not recorded as error: Errors = %d", snap.Errors)
	}
	if snap.Folds != 1 {
		t.Errorf("Folds = %d, want 1", snap.Folds)
	}
}

// TestRetryExhausted: a persistently failing site burns the attempt budget
// and surfaces the typed fault.
func TestRetryExhausted(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm(fault.SiteSubstrate, fault.Trigger{Mode: fault.ModeError, Every: 1}); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	_, err := Fold("GGGAAACCC", "GGGUUUCCC",
		WithRetry(RetryConfig{MaxAttempts: 3, Base: time.Microsecond, Max: time.Microsecond}),
		WithMetrics(m))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Site != fault.SiteSubstrate {
		t.Fatalf("err = %v, want *FaultError at substrate", err)
	}
	snap := m.Snapshot()
	if snap.Retries != 2 || snap.RetrySuccesses != 0 || snap.RetriesExhausted != 1 {
		t.Errorf("retry ledger = %d/%d/%d, want 2/0/1", snap.Retries, snap.RetrySuccesses, snap.RetriesExhausted)
	}
}

// TestRetryNeverRetriesNonTransient: cancellation and memory-limit failures
// are terminal — the policy must not spend attempts on them.
func TestRetryNeverRetriesNonTransient(t *testing.T) {
	defer fault.Reset()
	rc := RetryConfig{MaxAttempts: 5, Base: time.Microsecond, Max: time.Microsecond}

	m := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FoldContext(ctx, "GGGAAACCC", "GGGUUUCCC", WithRetry(rc), WithMetrics(m)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fold err = %v", err)
	}
	if snap := m.Snapshot(); snap.Retries != 0 {
		t.Errorf("cancellation was retried %d times", snap.Retries)
	}

	m = NewMetrics()
	_, err := Fold("GGGAAACCC", "GGGUUUCCC", WithRetry(rc), WithMetrics(m), WithMemoryLimit(16))
	var mle *MemoryLimitError
	if !errors.As(err, &mle) {
		t.Fatalf("err = %v, want *MemoryLimitError", err)
	}
	if snap := m.Snapshot(); snap.Retries != 0 {
		t.Errorf("memory-limit failure was retried %d times", snap.Retries)
	}
}

// TestRetryRescuesSolverPanic: an injected engine-iteration panic is
// recovered as a *PanicError (transient) and the retry lands the fold.
func TestRetryRescuesSolverPanic(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm(fault.SiteEngineIter, fault.Trigger{Mode: fault.ModePanic, Once: true}); err != nil {
		t.Fatal(err)
	}
	res, err := Fold("GGGAAACCCUUU", "GGGUUUCCCAAA",
		WithRetry(RetryConfig{MaxAttempts: 3, Base: time.Microsecond, Max: time.Microsecond}))
	if err != nil {
		t.Fatalf("retry did not rescue the panicked fold: %v", err)
	}
	res.Release()
}

// TestWindowedRetry: ScanWindowed runs under the same retry policy.
func TestWindowedRetry(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm(fault.SiteSubstrate, fault.Trigger{Mode: fault.ModeError, Once: true}); err != nil {
		t.Fatal(err)
	}
	w, err := ScanWindowed("GGGAAACCCUUU", "GGGUUUCCCAAA", 5, 5,
		WithRetry(RetryConfig{MaxAttempts: 3, Base: time.Microsecond, Max: time.Microsecond}))
	if err != nil {
		t.Fatalf("windowed retry failed: %v", err)
	}
	w.Release()
}

// TestBreakerOpensAndBypasses: repeated single-flight leader failures open
// the result-layer breaker; subsequent folds bypass the cache (and so
// succeed, the fault being armed only at the cache-leader site); once the
// fault clears and the cooldown passes, a probe closes the breaker and the
// cache serves hits again.
func TestBreakerOpensAndBypasses(t *testing.T) {
	defer fault.Reset()
	c := NewCache(CacheConfig{BreakerThreshold: 2, BreakerCooldown: 5 * time.Millisecond})
	if err := fault.Arm(fault.SiteCacheLeader, fault.Trigger{Mode: fault.ModeError, Every: 1}); err != nil {
		t.Fatal(err)
	}
	seq1, seq2 := "GGGAAACCC", "GGGUUUCCC"
	for i := 0; i < 2; i++ {
		_, err := Fold(seq1, seq2, WithCache(c))
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("leader failure %d: err = %v, want *FaultError", i, err)
		}
	}
	// Breaker open: the fold bypasses the poisoned cache path and succeeds.
	res, err := Fold(seq1, seq2, WithCache(c))
	if err != nil {
		t.Fatalf("bypass fold failed: %v", err)
	}
	res.Release()
	st := c.Stats()
	if st.BreakerOpens < 1 || st.BreakerBypasses < 1 {
		t.Errorf("breaker opens %d, bypasses %d; want >= 1 each", st.BreakerOpens, st.BreakerBypasses)
	}
	if st.ResultHits != 0 {
		t.Errorf("errors must never be cached: ResultHits = %d", st.ResultHits)
	}
	// Recovery: clear the fault, wait out the cooldown; the probe leader
	// succeeds, closes the breaker, and the next fold is a cache hit.
	fault.Disarm(fault.SiteCacheLeader)
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 2; i++ {
		res, err := Fold(seq1, seq2, WithCache(c))
		if err != nil {
			t.Fatalf("recovery fold %d failed: %v", i, err)
		}
		res.Release()
	}
	if st := c.Stats(); st.ResultHits < 1 {
		t.Errorf("breaker did not close after successful probe: ResultHits = %d", st.ResultHits)
	}
	if st := c.Stats(); st.BreakerOpenKeys != 0 {
		t.Errorf("breaker still tracks open keys after recovery: %d", st.BreakerOpenKeys)
	}
}

// TestBatchItemFault: the batch-item failpoint fails exactly the injected
// item with the typed fault, never the batch.
func TestBatchItemFault(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm(fault.SiteBatchItem, fault.Trigger{Mode: fault.ModeError, Once: true}); err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Name: "a", Seq1: "GGGAAACCC", Seq2: "GGGUUUCCC"},
		{Name: "b", Seq1: "GGGGAAACC", Seq2: "GGUUUUCCC"},
		{Name: "c", Seq1: "GAGAGACCC", Seq2: "GGGUCUCUC"},
	}
	out := FoldBatch(items, 1)
	failed := 0
	for _, br := range out {
		if br.Err == nil {
			br.Result.Release()
			continue
		}
		failed++
		var fe *FaultError
		if !errors.As(br.Err, &fe) {
			t.Errorf("item %s failed untyped: %v", br.Name, br.Err)
		}
	}
	if failed != 1 {
		t.Errorf("one-shot batch fault failed %d items, want 1", failed)
	}
}

// TestSessionShutdownDrains: Shutdown stops admitting immediately, reports
// ctx expiry while an in-flight fold is still running (components kept),
// then completes the release once the fold drains — and the in-flight fold
// itself succeeds.
func TestSessionShutdownDrains(t *testing.T) {
	// Hold the first fold deterministically in flight: its first triangle
	// announces itself and parks until the gate opens.
	started, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sess, err := NewSession(WithWorkers(2), withTriangleHook(func(int, int) {
		once.Do(func() {
			close(started)
			<-gate
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	type foldOut struct {
		res *Result
		err error
	}
	done := make(chan foldOut, 1)
	go func() {
		res, err := sess.Fold(context.Background(), "GGGAAACCC", "GGGUUUCCC")
		done <- foldOut{res, err}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sess.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with in-flight fold = %v, want deadline exceeded", err)
	}
	// Closed to new work...
	if _, err := sess.Fold(context.Background(), "GG", "CC"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("fold after Shutdown = %v, want ErrSessionClosed", err)
	}
	// ...but the in-flight fold keeps its components and completes.
	close(gate)
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight fold failed across Shutdown: %v", out.err)
	}
	out.res.Release()
	if err := sess.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v, want nil", err)
	}
	if err := sess.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown not idempotent: %v", err)
	}
}

// TestSessionClosedTyped: every entry point of a closed session reports
// ErrSessionClosed (FoldBatch per item).
func TestSessionClosedTyped(t *testing.T) {
	sess, err := NewSession(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	ctx := context.Background()
	if _, err := sess.Fold(ctx, "GG", "CC"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Fold: %v", err)
	}
	if _, err := sess.ScanWindowed(ctx, "GG", "CC", 2, 2); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("ScanWindowed: %v", err)
	}
	if _, err := sess.FoldSingle(ctx, "GGGAAACCC"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("FoldSingle: %v", err)
	}
	if _, err := sess.SingleEnsemble("GGGAAACCC", 1.0); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("SingleEnsemble: %v", err)
	}
	out := sess.FoldBatch(ctx, []BatchItem{{Name: "a", Seq1: "GG", Seq2: "CC"}, {Name: "b", Seq1: "GG", Seq2: "CC"}}, 2)
	if len(out) != 2 {
		t.Fatalf("batch results = %d", len(out))
	}
	for _, br := range out {
		if !errors.Is(br.Err, ErrSessionClosed) {
			t.Errorf("batch item %s: %v", br.Name, br.Err)
		}
		if br.Name == "" {
			t.Error("batch item lost its name")
		}
	}
}

// TestSessionCloseTrimsOwnedPool: Close must actually release the retained
// fold state of the pool the session created (the documented behavior).
func TestSessionCloseTrimsOwnedPool(t *testing.T) {
	sess, err := NewSession(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Fold(context.Background(), "GGGAAACCCUUU", "GGGUUUCCCAAA")
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if sess.rq.pool.RetainedBytes() <= 0 {
		t.Fatal("fold retained nothing; trim assertion would be vacuous")
	}
	sess.Close()
	if got := sess.rq.pool.RetainedBytes(); got != 0 {
		t.Errorf("Close left %d bytes in the owned pool", got)
	}
}

// TestSessionCloseKeepsCallerPool: a caller-supplied pool must survive
// Close untouched.
func TestSessionCloseKeepsCallerPool(t *testing.T) {
	pool := NewPool()
	sess, err := NewSession(WithWorkers(1), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Fold(context.Background(), "GGGAAACCCUUU", "GGGUUUCCCAAA")
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	retained := pool.RetainedBytes()
	if retained <= 0 {
		t.Fatal("fold retained nothing")
	}
	sess.Close()
	if got := pool.RetainedBytes(); got != retained {
		t.Errorf("Close touched the caller's pool: %d -> %d bytes", retained, got)
	}
}

// TestClosedEngineFoldFallback: folding through a closed engine is the
// documented fallback path — the fold succeeds on per-fold goroutines and
// the engine counts the fallback.
func TestClosedEngineFoldFallback(t *testing.T) {
	e := NewEngine(2)
	e.Close()
	res, err := Fold("GGGAAACCCUUU", "GGGUUUCCCAAA", WithEngine(e), WithWorkers(2))
	if err != nil {
		t.Fatalf("fold through closed engine: %v", err)
	}
	want, err := Fold("GGGAAACCCUUU", "GGGUUUCCCAAA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score {
		t.Errorf("fallback fold score %v != direct %v", res.Score, want.Score)
	}
	res.Release()
	want.Release()
	if st := e.Stats(); st.FallbackRuns < 1 {
		t.Errorf("FallbackRuns = %d, want >= 1", st.FallbackRuns)
	}
}

// TestAdmissionGrantFaultResolvesSlot: a fault injected at the grant point
// must hand the slot back — the gate drains to zero and keeps serving.
func TestAdmissionGrantFaultResolvesSlot(t *testing.T) {
	defer fault.Reset()
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	if err := fault.Arm(fault.SiteAdmissionGrant, fault.Trigger{Mode: fault.ModeError, Once: true}); err != nil {
		t.Fatal(err)
	}
	_, err := Fold("GGGAAACCC", "GGGUUUCCC", WithAdmission(a))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FaultError", err)
	}
	if st := a.Stats(); st.Running != 0 {
		t.Fatalf("grant fault leaked a slot: running = %d", st.Running)
	}
	res, err := Fold("GGGAAACCC", "GGGUUUCCC", WithAdmission(a))
	if err != nil {
		t.Fatalf("gate did not recover after grant fault: %v", err)
	}
	res.Release()
}

// TestCLIFailpointSpecRoundTrip: the spec grammar the -failpoints flag
// accepts arms what it says (sites listed by SiteNames are all valid).
func TestCLIFailpointSpecRoundTrip(t *testing.T) {
	defer fault.Reset()
	for _, s := range fault.SiteNames() {
		if err := fault.ArmSpec(s + "=once*error"); err != nil {
			t.Errorf("documented site %q rejected: %v", s, err)
		}
	}
	if got := fault.Armed(); got != len(fault.SiteNames()) {
		t.Errorf("Armed() = %d, want %d", got, len(fault.SiteNames()))
	}
	fault.Reset()
	if fault.Armed() != 0 {
		t.Error("Reset left sites armed")
	}
}

// TestEntryPointContract holds all five entry points to the one attempt
// path's guarantees: a panic at the admission grant surfaces as a typed
// *PanicError with the slot returned, a failed request is counted in
// Metrics.Errors exactly once, and the `substrate` failpoint is reached and
// rescued by WithRetry — for single-strand and ensemble requests exactly as
// for interaction folds.
func TestEntryPointContract(t *testing.T) {
	defer fault.Reset()
	const good, partner, bad = "GGGAAACCCUUU", "GGGUUUCCCAAA", "GGGAXACCC"
	ctx := context.Background()
	entries := []struct {
		name string
		call func(seq string, opts ...Option) error
	}{
		{"FoldContext", func(seq string, opts ...Option) error {
			res, err := FoldContext(ctx, seq, partner, opts...)
			res.Release()
			return err
		}},
		{"ScanWindowedContext", func(seq string, opts ...Option) error {
			win, err := ScanWindowedContext(ctx, seq, partner, 5, 5, opts...)
			win.Release()
			return err
		}},
		{"FoldSingleContext", func(seq string, opts ...Option) error {
			_, err := FoldSingleContext(ctx, seq, opts...)
			return err
		}},
		{"SingleEnsemble", func(seq string, opts ...Option) error {
			_, err := SingleEnsemble(seq, 1.0, opts...)
			return err
		}},
		{"FoldBatchContext", func(seq string, opts ...Option) error {
			out := FoldBatchContext(ctx, []BatchItem{{Name: "it", Seq1: seq, Seq2: partner}}, 1, opts...)
			out[0].Result.Release()
			return out[0].Err
		}},
	}
	for _, ep := range entries {
		t.Run(ep.name+"/grant-panic", func(t *testing.T) {
			defer fault.Reset()
			a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
			if err := fault.Arm(fault.SiteAdmissionGrant, fault.Trigger{Mode: fault.ModePanic, Once: true}); err != nil {
				t.Fatal(err)
			}
			err := ep.call(good, WithAdmission(a))
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if st := a.Stats(); st.Running != 0 {
				t.Errorf("grant panic leaked a slot: running = %d", st.Running)
			}
		})
		t.Run(ep.name+"/invalid-sequence", func(t *testing.T) {
			m := NewMetrics()
			if err := ep.call(bad, WithMetrics(m)); err == nil {
				t.Fatal("invalid sequence accepted")
			}
			if got := m.Errors(); got != 1 {
				t.Errorf("Metrics.Errors = %d, want exactly 1", got)
			}
		})
		t.Run(ep.name+"/substrate-retry", func(t *testing.T) {
			defer fault.Reset()
			if err := fault.Arm(fault.SiteSubstrate, fault.Trigger{Mode: fault.ModeError, Once: true}); err != nil {
				t.Fatal(err)
			}
			m := NewMetrics()
			err := ep.call(good, WithMetrics(m),
				WithRetry(RetryConfig{MaxAttempts: 3, Base: time.Microsecond, Max: time.Microsecond}))
			if err != nil {
				t.Fatalf("retry did not rescue the request: %v", err)
			}
			if snap := m.Snapshot(); snap.Errors != 1 || snap.Retries != 1 || snap.RetrySuccesses != 1 {
				t.Errorf("errors/retries/successes = %d/%d/%d, want 1/1/1 (success on the second attempt)",
					snap.Errors, snap.Retries, snap.RetrySuccesses)
			}
		})
	}

	// A single-flight leader's failure is counted once too, by the attempt
	// loop alone — not again by the cold body running inside the cache.
	t.Run("FoldContext/invalid-sequence-cache-leader", func(t *testing.T) {
		m := NewMetrics()
		_, err := FoldContext(ctx, bad, partner, WithCache(NewCache(CacheConfig{})), WithMetrics(m))
		if err == nil {
			t.Fatal("invalid sequence accepted")
		}
		if got := m.Errors(); got != 1 {
			t.Errorf("Metrics.Errors = %d, want exactly 1", got)
		}
	})

	// Single-strand parallel builds run on the request's engine, under its
	// failpoints — not on goroutines of their own.
	t.Run("FoldSingleContext/engine", func(t *testing.T) {
		defer fault.Reset()
		// Long enough that a two-worker build tiles instead of filling inline.
		strand := chaosPairs(5, 1, nussinov.SequentialCutoff, 1)[0][0]
		e := NewEngine(2)
		defer e.Close()
		want, err := FoldSingle(strand, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := FoldSingleContext(ctx, strand, WithEngine(e), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || got.Bracket != want.Bracket {
			t.Errorf("engine build = %v %q, sequential = %v %q", got.Score, got.Bracket, want.Score, want.Bracket)
		}
		if runs := e.Stats().Runs; runs == 0 {
			t.Error("Engine.Stats().Runs = 0: the substrate build bypassed the engine")
		}
		if err := fault.Arm(fault.SiteEngineIter, fault.Trigger{Mode: fault.ModeError, Every: 1}); err != nil {
			t.Fatal(err)
		}
		_, err = FoldSingleContext(ctx, strand, WithEngine(e), WithWorkers(2))
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Site != fault.SiteEngineIter {
			t.Fatalf("err = %v, want *FaultError at engine-iter", err)
		}
	})
}
