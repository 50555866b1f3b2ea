package bpmax

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/fault"
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

// sequentialFor is the inline path shared by both schedules when fork-join
// buys nothing: it runs every iteration on the calling goroutine, checking
// ctx between iterations and converting a panic in f into a *PanicError.
func sequentialFor(done <-chan struct{}, ctxErr func() error, n int, f func(i int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = capturePanic(r)
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case <-done:
			return ctxErr()
		default:
		}
		// Same failpoint as the engine's claim loop, so width-1 folds see
		// injected worker faults too.
		if ferr := fault.Hit(fault.SiteEngineIter); ferr != nil {
			return ferr
		}
		f(i)
	}
	return nil
}

// parallelForCtx runs f(i) for every i in [0, n) across workers goroutines
// with dynamic (work-stealing counter) distribution — the analogue of
// OpenMP's dynamic schedule, which the paper found best under BPMax's
// imbalanced triangles.
//
// Cancellation is cooperative at iteration granularity: every worker checks
// ctx.Done() before claiming the next index, so the latency of a cancel is
// bounded by the longest single task, and no goroutine outlives the call —
// parallelForCtx always joins all workers before returning. A panic in f is
// recovered on the worker, stops the remaining workers, and is returned as
// a *PanicError. When both happen, the first event wins.
func parallelForCtx(ctx context.Context, n, workers int, f func(i int)) error {
	workers = resolveWorkers(workers)
	if n == 0 {
		return ctx.Err()
	}
	done := ctx.Done()
	if workers == 1 || n == 1 {
		return sequentialFor(done, ctx.Err, n, f)
	}
	if workers > n {
		workers = n
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	fail := func(e error) {
		errOnce.Do(func() { err = e })
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(capturePanic(r))
				}
			}()
			for !stop.Load() {
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	return err
}

// parallelForStaticCtx runs f(i) for every i in [0, n) with a static blocked
// distribution (worker w gets one contiguous chunk). It exists for the
// static-vs-dynamic scheduling ablation; dynamic wins under imbalance.
// Cancellation and panic isolation behave exactly as in parallelForCtx.
func parallelForStaticCtx(ctx context.Context, n, workers int, f func(i int)) error {
	workers = resolveWorkers(workers)
	if n == 0 {
		return ctx.Err()
	}
	done := ctx.Done()
	if workers == 1 || n == 1 {
		return sequentialFor(done, ctx.Err, n, f)
	}
	if workers > n {
		workers = n
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	fail := func(e error) {
		errOnce.Do(func() { err = e })
		stop.Store(true)
	}
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(capturePanic(r))
				}
			}()
			for i := lo; i < hi && !stop.Load(); i++ {
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	return err
}
