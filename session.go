// Session: the serving facade over the fold pipeline.
//
// A Session parses its options once and binds the long-lived serving
// components — engine, pool, cache, admission gate, metrics — into one
// handle whose methods mirror the package-level entry points. It is the
// intended shape for a process that serves folds continuously: construct
// one Session at startup, share it between goroutines, watch Stats,
// Shutdown (or Close) on the way out.
//
// Every method honors a per-request trace carried in its context
// (internal/trace): the pipeline records queue wait, cache outcomes,
// substrate and fill phases into it with no per-method plumbing, and a
// context without a trace costs nothing. cmd/bpmaxd attaches one per HTTP
// request; library callers normally never construct one. A FoldBatch's
// items share the batch context's single trace — its stage stats aggregate
// across the whole batch.

package bpmax

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/fault"
)

// ErrSessionClosed is returned by every Session method invoked after Close
// or Shutdown marked the session closed. Match it with errors.Is.
var ErrSessionClosed = errors.New("bpmax: session closed")

// Session runs folds through one pre-parsed option set and one set of
// serving components. Unless the options supply them, a Session creates and
// owns its engine (persistent workers) and pool (recycled fold state) —
// the two components every serving process wants; caching (WithCache) and
// admission control (WithAdmission) are policy decisions and are attached
// only when configured. All methods are safe for concurrent use.
type Session struct {
	rq   request // carries the engine, pool, cache, gate and aggregate it serves through
	opts []Option

	ownedEngine bool
	ownedPool   bool

	// mu guards closed and orders it against inflight.Add: once markClosed
	// sets closed under mu, no new fold can register, so inflight.Wait
	// observes a monotonically draining count.
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	released atomic.Bool
}

// NewSession parses opts once and returns a ready session. An unknown
// variant, substrate algorithm or algebra, or an invalid kT, fails here, not
// on first use. When opts carry no WithEngine, the session starts an engine
// sized by WithWorkers (GOMAXPROCS by default) and closes it on shutdown;
// when they carry no WithPool, it creates a pool and trims it on shutdown.
// Caller-supplied components are used but never closed or trimmed by the
// session.
func NewSession(opts ...Option) (*Session, error) {
	rq := buildOptions(opts)
	if err := cmp.Or(rq.verr, rq.aerr, rq.algErr); err != nil {
		return nil, err
	}
	s := &Session{opts: append([]Option(nil), opts...)}
	if rq.engine == nil {
		s.ownedEngine = true
		rq.engine = NewEngine(rq.cfg.Workers)
		rq.cfg.Engine = rq.engine.e
		s.opts = append(s.opts, WithEngine(rq.engine))
	}
	if rq.pool == nil {
		s.ownedPool = true
		rq.pool = NewPool()
		rq.cfg.Pool = rq.pool.p
		s.opts = append(s.opts, WithPool(rq.pool))
	}
	s.rq = rq
	return s, nil
}

// begin registers one in-flight call, or reports ErrSessionClosed once the
// session stopped admitting. A nil error must be paired with one end.
func (s *Session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.inflight.Add(1)
	return nil
}

func (s *Session) end() { s.inflight.Done() }

// Fold computes the BPMax interaction of two strands through the session's
// pipeline; see FoldContext for the cancellation, budgeting and degradation
// contract. A closed session returns ErrSessionClosed.
func (s *Session) Fold(ctx context.Context, seq1, seq2 string) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	return s.rq.runFold(ctx, seq1, seq2)
}

// FoldWith is Fold with per-request option overrides layered on top of the
// session's base options — the serving-layer route for per-request algebra
// (WithAlgebra, WithKT) or schedule selection. The base options carry the
// session's engine, pool, cache and admission gate, so an overridden fold
// still runs through the same components; with no extras it is exactly
// Fold, including the once-per-session option parse.
func (s *Session) FoldWith(ctx context.Context, seq1, seq2 string, extra ...Option) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	if len(extra) == 0 {
		return s.rq.runFold(ctx, seq1, seq2)
	}
	rq := buildOptions(append(append([]Option(nil), s.opts...), extra...))
	return rq.runFold(ctx, seq1, seq2)
}

// FoldBatch folds every pair through the session's components; see
// FoldBatchContext for the worker-budget and failure contract. On a closed
// session every item fails with ErrSessionClosed.
func (s *Session) FoldBatch(ctx context.Context, items []BatchItem, workers int) []BatchResult {
	if err := s.begin(); err != nil {
		out := make([]BatchResult, len(items))
		for i, it := range items {
			out[i] = BatchResult{Name: it.Name, Err: err}
		}
		return out
	}
	defer s.end()
	return FoldBatchContext(ctx, items, workers, s.opts...)
}

// FoldBatchWith is FoldBatch with per-request option overrides shared by
// every item of the batch; see FoldWith for the layering contract.
func (s *Session) FoldBatchWith(ctx context.Context, items []BatchItem, workers int, extra ...Option) []BatchResult {
	if err := s.begin(); err != nil {
		out := make([]BatchResult, len(items))
		for i, it := range items {
			out[i] = BatchResult{Name: it.Name, Err: err}
		}
		return out
	}
	defer s.end()
	if len(extra) == 0 {
		return FoldBatchContext(ctx, items, workers, s.opts...)
	}
	return FoldBatchContext(ctx, items, workers, append(append([]Option(nil), s.opts...), extra...)...)
}

// ScanWindowed runs a windowed (banded) scan through the session's
// pipeline; see ScanWindowedContext. A closed session returns
// ErrSessionClosed.
func (s *Session) ScanWindowed(ctx context.Context, seq1, seq2 string, w1, w2 int) (*WindowResult, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	return s.rq.runWindowed(ctx, seq1, seq2, w1, w2)
}

// FoldSingle folds one strand alone through the session's pipeline; see
// FoldSingleContext. A closed session returns ErrSessionClosed.
func (s *Session) FoldSingle(ctx context.Context, seq string) (*SingleResult, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	return s.rq.runSingle(ctx, seq)
}

// SingleEnsemble computes the single-strand ensemble signal through the
// session's pipeline; see the package-level SingleEnsemble. A closed
// session returns ErrSessionClosed.
func (s *Session) SingleEnsemble(seq string, kT float64) (*EnsembleResult, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	return s.rq.runEnsemble(seq, kT)
}

// Stats is the session's observability document: the totals of its
// WithMetrics aggregate (zero without one) and a section for each component
// it serves through — always its engine and pool, the cache and admission
// gate when configured. A process front-end adds only what it alone knows
// (cmd/bpmaxd: its HTTP accounting and a runtime sample). Safe to call
// concurrently with running folds, and still available after Close.
func (s *Session) Stats() MetricsSnapshot { return s.rq.stats() }

// Stats is Session.Stats for callers that fold through the package-level
// entry points: the document assembled from the components opts carry.
func Stats(opts ...Option) MetricsSnapshot { return buildOptions(opts).stats() }

// stats is the one snapshot assembly: the aggregate's totals, a section per
// component the request carries, and the failpoint registry's while any site
// is armed.
func (rq request) stats() MetricsSnapshot {
	var s MetricsSnapshot
	if rq.metrics != nil {
		s = rq.metrics.Snapshot()
	}
	if rq.engine != nil {
		es := rq.engine.Stats()
		s.Engine = &es
	}
	if rq.pool != nil {
		ps := rq.pool.Stats()
		s.Pool = &ps
	}
	if rq.cache != nil {
		cs := rq.cache.Stats()
		s.Cache = &cs
	}
	if rq.admission != nil {
		as := rq.admission.Stats()
		s.Admission = &as
	}
	if fault.Armed() > 0 {
		fs := fault.Snapshot()
		s.Faults = &fs
	}
	return s
}

// markClosed stops admitting: every method entered after it returns
// ErrSessionClosed. Idempotent.
func (s *Session) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// release frees the owned components exactly once: the engine the session
// started is closed, the pool it created is trimmed back to zero retention.
func (s *Session) release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	if s.ownedEngine {
		s.rq.engine.Close()
	}
	if s.ownedPool {
		s.rq.pool.Trim()
	}
}

// Shutdown drains the session gracefully: it stops admitting new calls
// (they return ErrSessionClosed immediately), waits for every in-flight
// call to finish, then releases the owned components — the engine the
// session started is closed and the pool it created is trimmed. If ctx ends
// before the drain completes, Shutdown returns ctx.Err() with the session
// closed to new work but the components not yet released — in-flight folds
// keep their engine and pool; call Shutdown (or Close) again to finish the
// release once they drain. Shutdown is idempotent.
func (s *Session) Shutdown(ctx context.Context) error {
	s.markClosed()
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.release()
	return nil
}

// Close is the non-blocking shutdown: it stops admitting (methods return
// ErrSessionClosed), closes the engine the session started, and trims the
// pool it created back to zero retained bytes. Unlike Shutdown it does not
// wait for in-flight calls — they stay correct, finishing their loops on
// their own goroutine exactly as Engine.Close documents, with the pool
// re-warming behind them. Close is idempotent.
func (s *Session) Close() {
	s.markClosed()
	s.release()
}
