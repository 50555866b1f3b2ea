// Robustness layer: cancellation, deadlines, memory budgeting, graceful
// degradation and panic isolation for long-running folds.
//
// BPMax is Θ(N³M³) time and Θ(N²M²) space, so a production caller must be
// able to bound both before committing: FoldContext honors a
// context.Context cooperatively at wavefront/triangle granularity in every
// schedule, WithMemoryLimit rejects over-budget folds with a typed
// *MemoryLimitError before the table is allocated, and
// WithDegradeToWindowed opts into the degradation ladder
//
//	full table (box map) → packed map (half the memory) → windowed scan
//
// recording which rung fired in Result.Degradation. A panic on any solver
// worker is recovered and returned as a *PanicError instead of killing the
// process, so one poisoned fold fails one call (or one batch item), not the
// service.

package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/fault"
)

// PanicError is the error a fold returns when a solver goroutine panicked;
// it carries the panic value and the panicking goroutine's stack. Match it
// with errors.As.
type PanicError = ibpmax.PanicError

// FaultError is the typed error an armed failpoint injects (see
// internal/fault and the `bpmax -failpoints` flag). Injected faults are
// transient by definition — WithRetry retries them.
type FaultError = fault.Error

// RetryConfig bounds the retry policy installed by WithRetry. The zero
// value selects the defaults noted on each field.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts, including the first
	// (default 3; 1 disables retries without removing the policy).
	MaxAttempts int
	// Base is the backoff before the first retry (default 1ms); it doubles
	// per further retry, capped at Max (default 100ms). The actual sleep is
	// jittered uniformly over [d/2, d] so synchronized failures do not
	// retry in lockstep.
	Base time.Duration
	Max  time.Duration
	// Seed makes the jitter sequence deterministic (0 selects a fixed
	// default seed; the sequence is deterministic either way — set distinct
	// seeds to decorrelate callers).
	Seed int64
}

// WithRetry retries transiently failed folds: after an attempt fails with a
// transient error (see IsTransient — recovered solver panics, injected
// faults, failed single-flight leaders; never cancellation, memory-limit or
// admission errors), the fold backs off exponentially with jitter and runs
// again, up to MaxAttempts total attempts. The admission slot, if any, is
// released during the backoff and re-acquired by the next attempt, so a
// retrying request never pins concurrency it is not using. Retries apply to
// every entry point: Fold/FoldContext, FoldBatch items, ScanWindowed,
// FoldSingle and SingleEnsemble.
func WithRetry(rc RetryConfig) Option {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 3
	}
	if rc.Base <= 0 {
		rc.Base = time.Millisecond
	}
	if rc.Max <= 0 {
		rc.Max = 100 * time.Millisecond
	}
	return func(o *options) { o.retry = &rc }
}

// IsTransient reports whether err is a failure WithRetry would retry: a
// recovered solver panic (*PanicError) or an injected fault (*FaultError),
// including either surfacing as a failed single-flight leader. Context
// cancellation, deadline expiry, *MemoryLimitError and *AdmissionError are
// never transient — retrying cannot help them.
func IsTransient(err error) bool {
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	var fe *FaultError
	return errors.As(err, &fe)
}

// isTransientFold is the pipeline's retry predicate; a separate name so the
// policy reads as a decision, not a type assertion.
func isTransientFold(err error) bool { return err != nil && IsTransient(err) }

// recoveredError converts a recovered panic value into the typed error the
// robustness layer returns. Values that already are (or carry) a
// *PanicError pass through, keeping the original panic stack.
func recoveredError(r any) error {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	if err, ok := r.(error); ok {
		var pe *PanicError
		if errors.As(err, &pe) {
			return pe
		}
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// backoff returns the jittered sleep before retry attempt n (1-based):
// Base doubled per attempt, capped at Max, then jittered uniformly over
// [d/2, d] with a splitmix64 stream keyed by Seed and n.
func (rc *RetryConfig) backoff(attempt int) time.Duration {
	d := rc.Base
	for i := 1; i < attempt && d < rc.Max; i++ {
		d *= 2
	}
	if d > rc.Max {
		d = rc.Max
	}
	if d <= 0 {
		return 0
	}
	seed := uint64(rc.Seed)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	h := splitmix64(seed ^ uint64(attempt)*0xff51afd7ed558ccd)
	half := d / 2
	return half + time.Duration(h%uint64(half+1))
}

// splitmix64 mirrors internal/fault's mixer for the retry jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Degradation records which memory fallback, if any, a budgeted fold took.
type Degradation int

const (
	// DegradeNone: the fold ran with the requested table layout.
	DegradeNone Degradation = iota
	// DegradePacked: the bounding-box table was over budget but the packed
	// quarter-space map (half the memory) fit, so the fold used that. Same
	// exact scores, somewhat slower fill.
	DegradePacked
	// DegradeWindowed: no full-table layout fit the budget; the fold fell
	// back to the windowed scan configured by WithDegradeToWindowed.
	// Result.Score is then the best in-window interaction score.
	DegradeWindowed
)

// String returns "none", "packed" or "windowed".
func (d Degradation) String() string {
	switch d {
	case DegradeNone:
		return "none"
	case DegradePacked:
		return "packed"
	case DegradeWindowed:
		return "windowed"
	}
	return fmt.Sprintf("Degradation(%d)", int(d))
}

// MemoryLimitError reports a fold rejected before any table allocation
// because every permitted layout exceeds the configured memory limit.
type MemoryLimitError struct {
	// EstimateBytes is the smallest table footprint among the layouts the
	// fold was permitted to consider (box, packed, and — when degradation
	// is enabled — the windowed band).
	EstimateBytes int64
	// LimitBytes is the limit set with WithMemoryLimit.
	LimitBytes int64
}

func (e *MemoryLimitError) Error() string {
	return fmt.Sprintf("bpmax: fold needs at least %d bytes of table storage, over the %d-byte memory limit",
		e.EstimateBytes, e.LimitBytes)
}

// ScoreRangeError reports a max-plus fold, scan or single-strand fold refused
// before any table is built because its scores could leave float32's exact
// range: every weight is a multiple of 2⁻ᴱˣᵖ (WithWeights rounds to 2⁻⁸), a
// structure over N1+N2 nucleotides has up to ⌊(N1+N2)/2⌋ pairs, and the fold
// is refused where MaxWeight·2ᴱˣᵖ·⌊(N1+N2)/2⌋ reaches 2²⁴, float32's last
// consecutive integer. A partition fold (float64) is not bounded by it.
type ScoreRangeError struct {
	// MaxWeight is the largest magnitude among the allowed pair weights.
	MaxWeight float32
	// Exp is the smallest e with every allowed weight a multiple of 2⁻ᵉ.
	Exp int
	// N1, N2 are the strand lengths (N2 = 0 for a single strand).
	N1, N2 int
}

func (e *ScoreRangeError) Error() string {
	return fmt.Sprintf("bpmax: pair weights up to %v on a 2^-%d grid over %d+%d nt can score %g grid units, beyond float32's exact range (2^24)",
		e.MaxWeight, e.Exp, e.N1, e.N2, math.Ldexp(float64(e.MaxWeight), e.Exp)*float64((e.N1+e.N2)/2))
}

// WithMemoryLimit bounds the F-table storage a fold may allocate, in bytes
// (0, the default, means unlimited). The footprint is computed analytically
// before allocation: a fold that cannot fit returns a *MemoryLimitError —
// or degrades, see WithDegradeToWindowed — without touching the allocator.
// The charge covers everything the fold would keep resident: the table
// itself, storage retained by a configured pool, and bytes pinned by a
// configured cache (WithCache).
func WithMemoryLimit(bytes int64) Option {
	return func(o *options) { o.memLimit = bytes }
}

// WithDegradeToWindowed lets a fold that exceeds its WithMemoryLimit budget
// fall back down the degradation ladder instead of failing: first the
// packed quarter-space map (exact, half the bounding-box memory), then a
// windowed scan with windows (w1, w2) (the local-interaction screen; the
// memory-bounded mode of the GPU formulations). Result.Degradation records
// which rung fired. Without WithMemoryLimit this option has no effect.
func WithDegradeToWindowed(w1, w2 int) Option {
	return func(o *options) { o.degradeW1, o.degradeW2 = w1, w2 }
}

// EstimateBytes returns the storage, in bytes, that a full fold of
// sequences with lengths n1 and n2 would allocate under the given options.
// The estimate follows the memory map (WithPackedMemory halves the table)
// and the algebra: a partition fold (AlgebraPartition) stores 8-byte cells
// instead of 4 and builds a Boltzmann substrate, which is counted too. It is
// the charge Fold with WithMemoryLimit compares against the limit for an
// unpooled, uncached fold, so that limit admits the fold undegraded; a pool
// or a cache adds its retention on top.
func EstimateBytes(n1, n2 int, opts ...Option) int64 {
	rq := buildOptions(opts)
	rq.cfg.Pool, rq.cache = nil, nil
	return rq.charge(n1, n2, rung{kind: rq.cfg.Map, w1: n1, w2: n2})
}

// EstimateWindowedBytes returns the banded-table storage, in bytes, of a
// windowed scan over lengths n1, n2 with windows w1, w2.
func EstimateWindowedBytes(n1, n2, w1, w2 int) int64 {
	return request{}.charge(n1, n2, rung{kind: ibpmax.MapPacked, w1: w1, w2: w2})
}

// FoldContext is Fold with cooperative cancellation, deadlines, memory
// budgeting and panic isolation.
//
// Cancellation: every schedule checks ctx at wavefront/triangle granularity
// (one triangle, row or row-tile of work per check), so cancellation
// latency is bounded by one in-flight task per worker — milliseconds even
// on large problems — and no goroutine outlives the call. On cancellation
// the partial table is discarded and ctx.Err() (context.Canceled or
// context.DeadlineExceeded) is returned.
//
// Memory budgeting: with WithMemoryLimit set, the table footprint is
// estimated analytically first. An over-budget fold either degrades (see
// WithDegradeToWindowed) or returns a *MemoryLimitError without allocating.
//
// Panic isolation: a panic on any solver worker is recovered and returned
// as a *PanicError instead of crashing the process.
//
// The background-context fast path is bit-identical to Fold: same table,
// same score, same traceback.
func FoldContext(ctx context.Context, seq1, seq2 string, opts ...Option) (*Result, error) {
	return buildOptions(opts).runFold(ctx, seq1, seq2)
}
