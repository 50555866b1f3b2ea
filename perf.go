// Performance layer: the shared execution engine and the fold-state pool
// that make steady-state folding allocation-free.
//
// A screening workload folds many pairs in a row; without help, every fold
// allocates a fresh Θ(N²M²) table and starts and joins a worker team of its
// own, so throughput is set by the allocator, the garbage collector and
// goroutine launches instead of by the DP kernels the paper optimized.
// NewEngine amortizes the team across folds (one persistent worker team,
// the paper's OMP analogue) and NewPool recycles tables and
// solver state (explicitly re-initialized, so pooled results are
// bit-identical to fresh ones). FoldBatch uses both automatically; see
// docs/PERFORMANCE.md for the architecture and the benchmark methodology.

package bpmax

import (
	"sync"
	"sync/atomic"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
)

// Engine is a persistent worker team shared across folds and batch items:
// the one parallel runtime every loop of every fold runs on. A parallel fold
// given none starts and closes a team of its own; with a shared one, workers
// park between wavefronts and between folds, and the total parallel width is
// capped at the engine's size no matter how many folds share it. Create one
// per process (or per service), pass it to folds with WithEngine, and Close
// it when done.
//
// An Engine is safe for concurrent use by any number of folds. A panic
// inside one fold is contained to that fold's call; the workers survive.
type Engine struct {
	e *ibpmax.Engine
}

// NewEngine starts a persistent worker team of the given total width
// (<= 0 means GOMAXPROCS). The goroutines are spawned once here and live
// until Close.
func NewEngine(workers int) *Engine {
	return &Engine{e: ibpmax.NewEngine(workers)}
}

// Workers returns the engine's total parallel width.
func (e *Engine) Workers() int { return e.e.Workers() }

// Close releases the engine's worker goroutines. Close must not be called
// while folds using the engine are in flight; folds started after Close
// remain correct but run each loop on the calling goroutine alone (counted
// in EngineStats.FallbackRuns).
func (e *Engine) Close() { e.e.Close() }

// WithEngine runs the fold's parallel loops on e's persistent workers
// instead of on a team started for this fold alone. A nil engine changes
// nothing.
func WithEngine(e *Engine) Option {
	return func(o *options) {
		if e != nil {
			o.engine = e
			o.cfg.Engine = e.e
		}
	}
}

// Pool recycles fold state — DP tables, score and S-table substrates,
// sequence buffers, solver scratch and Result shells — so that repeated
// folds through it allocate O(1) once warm. Buffers are explicitly
// re-initialized on reuse: a pooled fold returns bit-identical results to a
// fresh one, including after a cancelled or panicked fold touched the pool.
//
// Callers release a fold's resources back with Result.Release (or
// WindowResult.Release) once its scores, tables and structure are no longer
// needed; a result that is never released simply keeps its buffers out of
// the pool until the GC takes them, which is safe but forfeits the reuse.
//
// A Pool is safe for concurrent use. Retained table storage is accounted
// exactly (RetainedBytes) and counted against WithMemoryLimit budgets.
type Pool struct {
	p       *ibpmax.Pool
	results sync.Pool // *Result
	windows sync.Pool // *WindowResult

	// Result and WindowResult shells share one hit/miss pair in Stats.
	resultHits, resultMisses atomic.Int64
}

// NewPool returns an empty fold-state pool.
func NewPool() *Pool {
	return &Pool{p: ibpmax.NewPool()}
}

// RetainedBytes returns the table bytes currently parked in the pool —
// idle storage waiting for reuse. Buffers inside live Results are not
// counted (they are the caller's until Release).
func (p *Pool) RetainedBytes() int64 { return p.p.RetainedBytes() }

// Trim releases all idle pooled storage to the garbage collector and
// returns how many bytes were freed. Use it after a burst of large folds
// when the service goes quiet.
func (p *Pool) Trim() int64 { return p.p.Trim() }

// WithPool recycles fold state through p. A nil pool leaves per-fold
// allocation in place.
func WithPool(p *Pool) Option {
	return func(o *options) {
		if p != nil {
			o.pool = p
			o.cfg.Pool = p.p
		}
	}
}

// getResult returns a Result shell, recycled when a pool is configured.
func (o options) getResult() *Result {
	if o.pool == nil {
		return &Result{}
	}
	r, _ := o.pool.results.Get().(*Result)
	if r == nil {
		o.pool.resultMisses.Add(1)
		r = &Result{}
	} else {
		o.pool.resultHits.Add(1)
	}
	r.pool = o.pool
	return r
}

// putResult hands an unused Result shell back (fold error paths: the shell
// was acquired before the solve so metrics could record into it in place).
func (o options) putResult(r *Result) {
	if o.pool == nil {
		return
	}
	*r = Result{}
	o.pool.results.Put(r)
}

// getWindowResult returns a WindowResult shell, recycled when a pool is
// configured.
func (o options) getWindowResult() *WindowResult {
	if o.pool == nil {
		return &WindowResult{}
	}
	w, _ := o.pool.windows.Get().(*WindowResult)
	if w == nil {
		o.pool.resultMisses.Add(1)
		w = &WindowResult{}
	} else {
		o.pool.resultHits.Add(1)
	}
	w.pool = o.pool
	return w
}

// Release returns the result's pooled resources — the F table (or windowed
// band), the problem's substrate tables and the Result shell itself — to
// the pool the fold ran with. It is safe (and a no-op) on results from
// unpooled folds and is idempotent; the result, its SubScore/SingleScore
// accessors and any Structure derived from it must not be used after
// Release.
func (r *Result) Release() {
	if r == nil {
		return
	}
	pool := r.pool
	r.ft.Release()
	// Partition tables and the substrate's pair-weight matrices recycle
	// through the pool's float64 arena; its S tables are never pooled —
	// possibly cache-shared — and are left to the GC.
	r.ft64.Release()
	r.ps.Release()
	if w := r.Window; w != nil {
		// The band and the problem are this result's own (released above and
		// below); only the window's shell goes back through its Release.
		w.ft, w.prob = nil, nil
		w.Release()
	}
	r.prob.Release()
	*r = Result{}
	if pool != nil {
		pool.results.Put(r)
	}
}

// Release returns the windowed scan's pooled resources to the pool it ran
// with. Safe and idempotent like Result.Release; the window result must not
// be used afterwards.
func (w *WindowResult) Release() {
	if w == nil {
		return
	}
	pool := w.pool
	w.ft.Release()
	w.prob.Release()
	*w = WindowResult{}
	if pool != nil {
		pool.windows.Put(w)
	}
}
