package bpmax

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/fault"
	"github.com/bpmax-go/bpmax/internal/metrics"
)

// PanicError reports a panic recovered from a solver goroutine, carrying the
// panic value and the stack of the panicking goroutine. Worker panics must
// not take down the process: one poisoned fold should fail one call, so the
// parallel runtime converts them into errors that surface through
// SolveContext and the batch API.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("bpmax: solver panic: %v", e.Value)
}

// capturePanic wraps a recovered value into a *PanicError. Values that
// already are one pass through unchanged, so nested recovery (a worker's
// recover re-surfacing through SolveContext's) keeps the original stack.
func capturePanic(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// resolveWorkers maps a requested worker count to an actual one
// (<=0 means GOMAXPROCS, the OMP_NUM_THREADS analogue).
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// sequentialFor runs every iteration on the calling goroutine — a loop of
// width 1, or one with no live engine under it — checking ctx between
// iterations and converting a panic in f into a *PanicError; a cancel made
// during the last iteration is reported as Run reports it.
func sequentialFor(ctx context.Context, n int, f func(i int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = capturePanic(r)
		}
	}()
	done := ctx.Done()
	for i := 0; i < n; i++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		// Same failpoint as the engine's claim loop, so width-1 folds see
		// injected worker faults too.
		if ferr := fault.Hit(fault.SiteEngineIter); ferr != nil {
			return ferr
		}
		f(i)
	}
	return ctx.Err()
}

// Engine is the parallel runtime: a persistent worker team shared across
// wavefronts, folds, and batch items, and the only code in this package that
// starts goroutines (ci.sh lints it). Spawning per wavefront would cost
// O(diagonals × workers) goroutine launches per fold — exactly the barrier
// cost the paper's OMP runtime amortizes with a persistent thread team.
// Engine parks its workers on an unbuffered channel; a parallel loop hands
// them work by non-blocking sends, so only a worker
// that is genuinely idle (blocked in receive) ever picks a job up, and the
// submitting goroutine always participates in the loop itself. That gives
// two properties the batch layer relies on:
//
//   - Progress without helpers: under contention every loop still completes
//     on its submitter, so concurrent folds sharing one Engine degrade to
//     sequential instead of oversubscribing the machine.
//   - A hard physical cap: an Engine created with width W never has more
//     than W-1 helper goroutines in existence, no matter how many folds
//     share it.
//
// Scheduling inside a loop is dynamic (workers claim one index at a time
// from an atomic counter), mirroring the paper's OMP-dynamic result for
// BPMax's imbalanced triangles; a static-blocked distribution won on no
// width measured (docs/PERFORMANCE.md, "Paths retired because they lost").
//
// Cancellation is checked before every iteration (latency bounded by the
// longest single task), and a panic in the body is recovered inside the job
// — the worker survives, so one poisoned fold cannot poison the shared pool.
type Engine struct {
	workers int
	jobs    chan *job
	jobPool sync.Pool
	closed  atomic.Bool
	wg      sync.WaitGroup // parked workers, for Close to join
	stats   engineStats
}

// engineStats holds the engine's always-on utilization counters. They are
// deliberately cheap — a handful of atomic adds per Run (per wavefront,
// not per iteration; claims are batched per worker per job) — so no flag
// gates them.
type engineStats struct {
	runs, seqRuns, fallbacks       atomic.Int64
	helperOffers, helpersRecruited atomic.Int64
	chunksClaimed, panics          atomic.Int64
}

// job is one parallel loop in flight. Jobs are recycled through the engine's
// sync.Pool: by the time Run returns, every helper has called wg.Done, so no
// goroutine can still touch the struct.
type job struct {
	// ctx is stored as the interface (not Done()/Err() method values, which
	// would allocate per Run) so the steady state stays allocation-free.
	ctx  context.Context
	f    func(i int)
	n    int
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	// stats points at the owning engine's counters; workers batch their
	// claim counts into it once per job rather than per claim.
	stats *engineStats
}

// fail records the first error and stops remaining claims. A plain mutex
// instead of sync.Once so the job struct can be reused.
func (j *job) fail(e error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = e
	}
	j.mu.Unlock()
	j.stop.Store(true)
}

// run claims indices until the index space, a cancellation, or an error is
// exhausted. It is executed by the submitter and by every helper worker; the
// deferred recover converts a body panic into the job's error without
// killing the (persistent) goroutine running it.
func (j *job) run() {
	var claimed int64
	defer func() {
		if j.stats != nil {
			j.stats.chunksClaimed.Add(claimed)
		}
		if r := recover(); r != nil {
			if j.stats != nil {
				j.stats.panics.Add(1)
			}
			j.fail(capturePanic(r))
		}
	}()
	done := j.ctx.Done()
	for {
		if j.stop.Load() {
			return
		}
		// Failpoint: a worker crash mid-loop. Error mode fails the job like a
		// recovered panic would; panic mode exercises the recover above.
		if ferr := fault.Hit(fault.SiteEngineIter); ferr != nil {
			j.fail(ferr)
			return
		}
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		claimed++
		select {
		case <-done:
			j.fail(j.ctx.Err())
			return
		default:
		}
		j.f(i)
	}
}

// NewEngine creates an engine of the given total width (<= 0 means
// GOMAXPROCS): the submitting goroutine plus width-1 persistent helpers,
// spawned once here and parked until Close. The goroutine count is stable
// for the engine's whole lifetime — Run never spawns.
func NewEngine(workers int) *Engine {
	workers = resolveWorkers(workers)
	e := &Engine{
		workers: workers,
		jobs:    make(chan *job),
	}
	e.jobPool.New = func() any { return new(job) }
	e.wg.Add(workers - 1)
	for i := 0; i < workers-1; i++ {
		go func() {
			defer e.wg.Done()
			for j := range e.jobs {
				j.run()
				j.wg.Done()
			}
		}()
	}
	return e
}

// Workers returns the engine's total width (submitter + helpers).
func (e *Engine) Workers() int { return e.workers }

// Close releases the helper goroutines and joins them. Close must not be
// called while any Run is in flight; after Close, Run carries every loop on
// the submitting goroutine alone, so a closed engine stays safe to use.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	close(e.jobs)
	e.wg.Wait()
}

// Run executes f(i) for every i in [0, n) with dynamic chunk-of-1
// scheduling at width min(workers, engine width, n); the calling goroutine
// participates. Cancellation is cooperative at iteration granularity — ctx
// is checked before every iteration, so a cancel returns after at most one
// in-flight task per worker — and a panic in f is recovered where it ran and
// returned as a *PanicError. The first of cancellation / panic / completion
// wins — a loop completes when its last task returns, so a cancel made while
// a task runs is reported though no iteration was left to skip — and all
// work on the loop has finished when Run returns. A nil or
// closed engine has no helpers to offer: the loop runs on the caller alone.
func (e *Engine) Run(ctx context.Context, n, workers int, f func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if e == nil || e.closed.Load() {
		if e != nil {
			e.stats.fallbacks.Add(1)
		}
		return sequentialFor(ctx, n, f)
	}
	e.stats.runs.Add(1)
	width := min(resolveWorkers(workers), e.workers, n)
	if width == 1 {
		e.stats.seqRuns.Add(1)
		return sequentialFor(ctx, n, f)
	}

	j := e.jobPool.Get().(*job)
	j.ctx = ctx
	j.f = f
	j.n = n
	j.next.Store(0)
	j.stop.Store(false)
	j.err = nil
	j.stats = &e.stats

	// Offer the job to up to width-1 idle workers. The channel is unbuffered
	// and the sends non-blocking, so an offer only lands on a worker that is
	// parked in receive right now; busy workers are simply not recruited and
	// the submitter carries the loop alone in the worst case.
	var recruited int64
	for h := 0; h < width-1; h++ {
		j.wg.Add(1)
		select {
		case e.jobs <- j:
			recruited++
		default:
			j.wg.Done()
		}
	}
	e.stats.helperOffers.Add(int64(width - 1))
	e.stats.helpersRecruited.Add(recruited)

	j.run()
	j.wg.Wait()

	err := cmp.Or(j.err, ctx.Err())
	j.f = nil
	j.ctx = nil
	j.stats = nil
	e.jobPool.Put(j)
	return err
}

// Stats snapshots the engine's utilization counters. Counters are
// cumulative since NewEngine; callers wanting a window diff two snapshots.
func (e *Engine) Stats() metrics.EngineStats {
	return metrics.EngineStats{
		Width:            e.workers,
		Runs:             e.stats.runs.Load(),
		SequentialRuns:   e.stats.seqRuns.Load(),
		FallbackRuns:     e.stats.fallbacks.Load(),
		HelperOffers:     e.stats.helperOffers.Load(),
		HelpersRecruited: e.stats.helpersRecruited.Load(),
		ChunksClaimed:    e.stats.chunksClaimed.Load(),
		Panics:           e.stats.panics.Load(),
	}
}
