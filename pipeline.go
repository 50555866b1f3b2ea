// The fold pipeline: one attempt path shared by every public entry point.
//
// Fold/FoldContext, FoldBatch, ScanWindowed(Context), FoldSingle(Context)
// and SingleEnsemble are thin adapters: each parses its options exactly once
// into a request (buildOptions) and hands it to a run* method here, which
// names the entry point's option error and body and enters the same layers:
//
//	run      prologue: nil-ctx default, trace lookup, option error, retry loop
//	attempt  panic isolation, queue span, admission slot
//	body     fold → cache step → cold   scan → cold   single   ensemble
//
// So every entry point — single-strand and ensemble requests included —
// carries the same guarantees: a panic surfaces as a typed *PanicError with
// the admission slot already returned, a failed attempt is counted in
// Metrics.Errors exactly once, and WithRetry re-runs transient failures.
//
// cold is the one cold-solve body of the interaction DP,
//
//	result shell → problem shell → budget/degrade → substrate → fill → finalise
//
// with the fill chosen by (degrade rung, algebra); a ScanWindowed request is
// that body with the windowed rung forced to the caller's windows. The
// budget and the float32 score-range check run as soon as the shell has the
// two lengths, so a refused request builds no S table. Everything cached —
// a fold's result, every S table (a fold's, a scan's, a single strand's,
// max-plus or Boltzmann), an ensemble — goes through the one cache step,
// cacheDo in cache.go (breaker → probe → join → lead the build under the
// request's ctx → retain), and nothing else here touches the cache. The
// solver calls live only here (ci.sh lints it). Admission (WithAdmission)
// and the content-addressed cache (WithCache) are described in admission.go
// and cache.go; the cache's retained bytes are charged against
// WithMemoryLimit alongside the pool's.
//
// Stage methods have value receivers: a request copy is a flat struct, so
// batch workers and option-local mutations (cfg.Metrics wiring, pool
// stripping for cache masters) never race on shared state.
//
// Observation has one path. Every fill writes the FoldMetrics of its result
// shell (cold points cfg.Metrics at it, always); WithMetrics aggregates that
// record, and a request trace carried by the context copies its fill phases
// (solve, after the solver returns — on error too). Neither shapes the plan:
// an aggregated or traced fold is served from the result cache like any
// other, and a hit carries the record of the fill that built its master.
//
// See docs/ARCHITECTURE.md for the full stage diagram and semantics.

package bpmax

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/fault"
	imetrics "github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/pipeline"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
)

// request is the parsed, validated form of one pipeline request: the
// accumulated options plus everything resolvable before any sequence is
// seen — the scoring parameters and the internal schedule variant (or the
// error naming an unknown one, surfaced only by entry points that solve the
// interaction DP; single-strand entry points ignore the variant, as they
// always have). buildOptions produces it exactly once per call, and once
// per batch.
type request struct {
	options
	sp   score.Params
	v    ibpmax.Variant
	verr error
	// aerr names an unknown WithSubstrateAlgorithm value.
	aerr error
	// algErr names an unknown WithAlgebra value or an invalid WithKT; the
	// resolved algebra and kT themselves live in the embedded options
	// (buildOptions normalizes the defaults in).
	algErr error
	// scan marks a ScanWindowed request: runWindowed stores the caller's
	// windows in degradeW1/degradeW2 and cold runs its windowed rung
	// unconditionally — the band is the deliverable, not a degradation.
	scan bool
	// tr is the per-request trace carried by the call's context (nil in the
	// common disarmed case — every recording through it is then a no-op).
	// run looks it up once, never per stage. It observes the pipeline as
	// served: queue wait, cache hits and single-flight waits, and — on a cold
	// solve — the substrate stage and the fill phases FoldMetrics recorded.
	tr *itrace.Trace
}

// admit is the admission-control stage. A nil error means either no gate is
// configured or a slot is held; the caller must pair it with one unadmit.
func (rq request) admit(ctx context.Context) error {
	if rq.admission == nil {
		return nil
	}
	return rq.admission.a.Acquire(ctx)
}

// unadmit returns the admission slot, waking the front of the wait queue.
func (rq request) unadmit() {
	if rq.admission != nil {
		rq.admission.a.Release()
	}
}

// cacheRetained is the cache's current retained storage, charged against
// WithMemoryLimit budgets alongside the pool's retention.
func (rq request) cacheRetained() int64 {
	if rq.cache == nil {
		return 0
	}
	return rq.cache.c.RetainedBytes()
}

// run is the one prologue: every entry point enters the pipeline through
// it. optErr is the entry point's pre-resolved option error (an unknown
// variant, a non-positive window, ...), counted and returned before anything
// is admitted. Otherwise body runs as attempts under the retry policy: a
// transient failure (IsTransient — recovered panics and injected faults,
// never cancellation, budget or admission errors) backs off exponentially
// with deterministic jitter and runs again, until success, a non-transient
// error, the attempt budget, or the context ends. Each attempt re-admits
// through the gate, so a backing-off request holds no concurrency slot.
// This loop is also the one place a failed attempt is counted.
func run[T any](ctx context.Context, rq request, optErr error, body func(context.Context, request) (T, error)) (v T, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rq.tr = itrace.FromContext(ctx)
	if optErr != nil {
		rq.metrics.RecordError()
		return v, optErr
	}
	retried := false
	for n := 1; ; n++ {
		if v, err = attempt(ctx, rq, body); err == nil {
			if retried {
				rq.metrics.RecordRetrySuccess()
			}
			return v, nil
		}
		rq.metrics.RecordError()
		if rq.retry == nil || n >= rq.retry.MaxAttempts || !isTransientFold(err) || ctx.Err() != nil {
			break
		}
		rq.metrics.RecordRetry()
		retried = true
		if !sleepBackoff(ctx, rq.retry.backoff(n)) {
			break
		}
	}
	if retried {
		rq.metrics.RecordRetryExhausted()
	}
	return v, err
}

// sleepBackoff sleeps d unless ctx ends first; it reports whether the next
// attempt should run.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// guard is the pipeline's one recover. Deferred directly, it converts a
// panic escaping the solver's own recovery (injected faults outside the
// parallel runtime, grant-path panics, substrate builds) into a typed
// *PanicError instead of unwinding into the caller.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = recoveredError(r)
	}
}

// attempt is one pass through admission → body. The unadmit defer is
// registered after guard, so the admission slot is resolved before guard
// converts a panic.
func attempt[T any](ctx context.Context, rq request, body func(context.Context, request) (T, error)) (v T, err error) {
	defer guard(&err)
	qs := rq.tr.Begin()
	err = rq.admit(ctx)
	rq.tr.End(itrace.StageQueue, qs)
	if err != nil {
		return v, err
	}
	defer rq.unadmit()
	return body(ctx, rq)
}

// runFold executes one interaction fold through the pipeline.
func (rq request) runFold(ctx context.Context, seq1, seq2 string) (*Result, error) {
	return run(ctx, rq, cmp.Or(rq.verr, rq.aerr, rq.algErr), func(ctx context.Context, rq request) (*Result, error) {
		return rq.foldShared(ctx, seq1, seq2)
	})
}

// runWindowed executes a windowed scan: cold with the windowed rung forced
// to the caller's (w1, w2). Scans use the substrate cache but not the
// result cache (the banded table is the deliverable and typically as large
// as the substrate; retaining it per request would evict far more useful
// entries).
func (rq request) runWindowed(ctx context.Context, seq1, seq2 string, w1, w2 int) (*WindowResult, error) {
	optErr := cmp.Or(rq.aerr, rq.algErr)
	switch {
	case w1 <= 0 || w2 <= 0:
		optErr = fmt.Errorf("bpmax: windows must be positive (got %d, %d)", w1, w2)
	case optErr == nil && rq.algebra == AlgebraPartition:
		optErr = errors.New("bpmax: windowed scans are max-plus only; partition folds have no banded form")
	}
	rq.scan, rq.degradeW1, rq.degradeW2 = true, w1, w2
	res, err := run(ctx, rq, optErr, func(ctx context.Context, rq request) (*Result, error) {
		return rq.cold(ctx, seq1, seq2)
	})
	if err != nil {
		return nil, err
	}
	win := res.Window
	rq.putResult(res) // only the band is delivered; the fold shell goes back
	return win, nil
}

// runSingle executes a single-strand fold through the pipeline.
func (rq request) runSingle(ctx context.Context, seq string) (*SingleResult, error) {
	return run(ctx, rq, rq.aerr, func(ctx context.Context, rq request) (*SingleResult, error) {
		return rq.single(ctx, seq)
	})
}

// runEnsemble executes the single-strand ensemble signal.
func (rq request) runEnsemble(seq string, kT float64) (*EnsembleResult, error) {
	var optErr error
	if kT <= 0 {
		optErr = fmt.Errorf("bpmax: kT must be positive, got %v", kT)
	}
	return run(context.Background(), rq, optErr, func(ctx context.Context, rq request) (*EnsembleResult, error) {
		return rq.ensemble(ctx, seq, kT)
	})
}

// foldShared serves the fold through the cache step's result layer. A hit or
// a join returns a copy of the retained master result; the leader computes an
// unpooled master whose tables the cache retains — unpooled on purpose: cache
// hits share its tables indefinitely, so no pool may ever recycle (and
// re-fill) them. Bypassed (no result layer, or this key's breaker is open
// because its leaders kept failing), the fold is solved cold — pooled, never
// retained — and is the caller's own.
func (rq request) foldShared(ctx context.Context, seq1, seq2 string) (*Result, error) {
	cs := rq.tr.Begin()
	res, how, err := cacheDo(ctx, rq.cache, layerResult,
		func() pipeline.Key { return rq.resultKey(seq1, seq2) },
		func(retain bool) (*Result, int64, error) {
			if !retain {
				res, err := rq.cold(ctx, seq1, seq2)
				return res, 0, err
			}
			if err := fault.Hit(fault.SiteCacheLeader); err != nil {
				return nil, 0, err
			}
			m := rq
			m.pool = nil
			m.cfg.Pool = nil
			master, err := m.cold(ctx, seq1, seq2)
			if err != nil {
				return nil, 0, err
			}
			master.st = &tracedStructure{}
			return master, cachedResultBytes(master), nil
		})
	// A hit's whole step is cache service, a joiner's is time parked behind
	// another request's in-flight solve. A solve of this request's own
	// recorded its substrate and fill spans inside the step; charging the same
	// wall time again would break the trace ledger.
	rq.tr.End(how.stage(itrace.StageCount), cs)
	if err != nil || how == cacheBypassed {
		return res, err
	}
	return rq.adoptCached(res), nil
}

// adoptCached wraps a retained master result in a fresh (possibly pooled)
// shell. Copies share the master's immutable tables and its traced-back
// structure, so Release on a copy recycles only the shell; the master —
// which the cache and other copies still reference — is never handed out
// directly.
func (rq request) adoptCached(m *Result) *Result {
	res := rq.getResult()
	pool := res.pool
	*res = *m
	res.pool = pool
	if m.Window != nil {
		win := rq.getWindowResult()
		wpool := win.pool
		*win = *m.Window
		win.pool = wpool
		res.Window = win
	}
	return res
}

// cold is the one cold-solve body: result shell → solve, with the error
// cleanup written once. A panic skips the cleanup deliberately: a panicking
// stage cannot prove its shells are clean, and an unreleased shell is
// garbage-collected, never dirtily reused.
func (rq request) cold(ctx context.Context, seq1, seq2 string) (*Result, error) {
	// The result shell is acquired before the solve so the fill records
	// straight into Result.Metrics — no separate sink, no extra allocation on
	// the steady-state path.
	res := rq.getResult()
	rq.cfg.Metrics = &res.Metrics
	// One team for the whole request: a width > 1 fold without WithEngine
	// gets an engine scoped to this solve.
	cfg, release := rq.cfg.ScopedEngine(rq.cfg.Workers)
	defer release()
	rq.cfg = cfg
	if err := rq.solve(ctx, res, seq1, seq2); err != nil {
		res.ps.Release()
		res.prob.Release()
		rq.putResult(res)
		return nil, err
	}
	return res, nil
}

// solve fills res: problem shell → budget/degrade → substrate → the fill
// chosen by (rung, algebra) → the one finaliser.
func (rq request) solve(ctx context.Context, res *Result, seq1, seq2 string) error {
	var (
		cfg ibpmax.Config
		deg Degradation
		est int64
	)
	err := rq.substrate(func() (err error) {
		if err = rq.newProblem(res, seq1, seq2); err != nil {
			return err
		}
		// The lengths are known and nothing O(n³) has run: refuse here what
		// the budget or float32's exact range refuses.
		p := res.prob
		if cfg, deg, est, err = rq.budget(p.N1, p.N2); err != nil {
			return err
		}
		if err = rq.checkScoreRange(p.N1, p.N2); err != nil {
			return err
		}
		if _, err = rq.strandS(ctx, p.Seq1, &p.Tab.W1, &p.OwnS1, &p.S1); err != nil {
			return err
		}
		_, err = rq.strandS(ctx, p.Seq2, &p.Tab.W2, &p.OwnS2, &p.S2)
		return err
	})
	if err != nil {
		return err
	}
	p := res.prob
	// Partition folds never run banded: budget skips their windowed rung and
	// runWindowed rejects them.
	windowed := rq.scan || deg == DegradeWindowed
	partition := rq.algebra == AlgebraPartition
	var ps *ibpmax.PartitionSub
	if partition {
		err = rq.substrate(func() (err error) {
			ps, err = rq.partitionSub(ctx, p)
			return err
		})
		if err != nil {
			return err
		}
		res.ps = ps // cold's error exit returns its pooled matrices
	}
	var (
		ft   *ibpmax.FTable
		ft64 *ibpmax.FTableOf[float64]
	)
	start := time.Now()
	switch {
	case windowed:
		ft, err = ibpmax.SolveWindowedContext(ctx, p, rq.degradeW1, rq.degradeW2, cfg)
	case partition:
		ft64, err = ibpmax.SolvePartitionContext(ctx, p, ps, rq.v, cfg)
	default:
		ft, err = ibpmax.SolveContext(ctx, p, rq.v, cfg)
	}
	// Success or error: a cancelled or faulted fill still reports the partial
	// phase time the solver credited before it stopped.
	rq.tr.AddFill(start, rq.cfg.Metrics)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	res.Algebra = rq.algebra
	res.N1, res.N2 = p.N1, p.N2
	res.Elapsed = elapsed
	res.Degradation = deg
	switch {
	case windowed:
		// The banded table backs the result like any other; Score is the
		// best in-window interaction rather than the whole-pair cell.
		win := rq.getWindowResult()
		win.Best, win.I1, win.J1, win.I2, win.J2 = ft.BestWithin(ft.W1, ft.W2)
		win.TableBytes, win.Elapsed = ft.Bytes(), elapsed
		win.ft, win.prob = ft, p
		res.Score, res.TableBytes, res.ft, res.Window = win.Best, win.TableBytes, ft, win
	case partition:
		res.KT = rq.kT
		res.LogZ = ibpmax.PartitionLogZ(p, ft64)
		res.LogZ1 = ps.S1.LogAt(0, p.N1-1)
		res.LogZ2 = ps.S2.LogAt(0, p.N2-1)
		res.TableBytes, res.ft64 = ft64.Bytes(), ft64
		if ft64.GuardRefilled() {
			rq.metrics.RecordPartitionFallback()
		}
		rq.tr.SetLabel("partition_domain", partitionDomain(ft64))
	default:
		res.Score = p.Score(ft)
		res.TableBytes, res.ft = ft.Bytes(), ft
	}
	if !windowed {
		res.FLOPs = ibpmax.BPMaxFlops(p.N1, p.N2)
	}
	m := &res.Metrics
	m.Algebra = string(rq.algebra)
	if partition {
		m.PartitionDomain = partitionDomain(ft64)
	}
	rq.tr.SetLabel("kernel", m.Kernel)
	if m.R2 != "" {
		rq.tr.SetLabel("r2", m.R2)
	}
	m.FillNanos = int64(elapsed)
	m.TableBytes = res.TableBytes
	m.Degraded = deg.String()
	m.BudgetEstimateBytes = est
	if windowed {
		res.Window.Metrics = *m
	} else {
		m.Cells = ibpmax.CellElements(p.N1, p.N2)
		m.FLOPs = res.FLOPs
	}
	rq.metrics.RecordFold(m)
	return nil
}

// substrate runs one substrate-construction step and credits its wall time
// to the fold's PhaseSubstrate and the request trace's substrate stage. A
// failed step (bad input, an injected fault) credits time but no unit.
func (rq request) substrate(step func() error) error {
	start := time.Now()
	err := step()
	st := &rq.cfg.Metrics.Phases[imetrics.PhaseSubstrate]
	st.Nanos += int64(time.Since(start))
	if err == nil {
		st.Units++
	}
	rq.tr.End(itrace.StageSubstrate, start)
	return err
}

// newProblem builds the problem shell, recycled when pooled: parse and the
// pair score tables — everything the budget and the substrate stage need,
// nothing O(n³). The shell lands in res.prob as soon as it exists, so cold's
// error exit releases it whichever later step fails.
func (rq request) newProblem(res *Result, seq1, seq2 string) error {
	p, err := rq.cfg.Pool.NewProblemShell(seq1, seq2, rq.sp)
	if err != nil {
		var se *ibpmax.SequenceError
		if errors.As(err, &se) {
			return fmt.Errorf("bpmax: sequence %d: %w", se.Index, se.Err)
		}
		return err
	}
	res.prob = p
	// Failpoint: substrate-stage failure after the shell exists.
	return fault.Hit(fault.SiteSubstrate)
}

// strandS is the substrate stage's per-strand step for a max-plus S table —
// an interaction fold's or a scan's S¹ and S², a single strand's: the cache
// step over the one build, ibpmax.BuildS from the strand's weight view w
// into *own (the caller's storage, created when nil), under the request's
// ctx on its engine. *s becomes the table to read:
// the cache's — shared, read-only — when there is one, else *own. What the
// cache keeps of a build is *own itself, or a clone when *own is pooled
// storage, which the next fold builds over.
func (rq request) strandS(ctx context.Context, seq rna.Sequence, w *score.Weights, own, s **nussinov.Table) (how cacheOutcome, err error) {
	*s, how, err = cacheDo(ctx, rq.cache, layerSubstrate,
		func() pipeline.Key { return strandKey(keySubstrate, seq, rq.sp, 0) },
		func(retain bool) (_ *nussinov.Table, _ int64, err error) {
			// A fold's team is already bound (cold); a single strand's is bound
			// here, for the build alone.
			cfg, release := rq.cfg.ScopedEngine(rq.cfg.Workers)
			defer release()
			if *own, err = ibpmax.BuildS(ctx, *own, w, rq.sp.Model, cfg); err != nil {
				return nil, 0, err
			}
			t := *own
			if retain && rq.cfg.Pool != nil {
				t = t.Clone()
			}
			return t, t.Bytes(), nil
		})
	return how, err
}

// partitionDomain names the number domain that filled a partition table —
// the FoldMetrics / trace-label value.
func partitionDomain(ft *ibpmax.FTableOf[float64]) string {
	if ft.Scaled() {
		return "scaled"
	}
	return "log"
}

// partitionSub builds the Boltzmann substrate of a partition fold: each
// strand's float64 ensemble table — keyed by (model, hairpin, kT, bases) and
// shared across folds exactly like the max-plus S tables (they are never
// pooled, so retaining them directly is safe; an entry carries its own
// domain and scale) — then the pair-weight matrices in the domain the two
// tables allow. A build whose range guard tripped comes back in the log
// domain and is counted. The max-plus S¹/S² already installed on p stay:
// they seed the scale, and SingleScore and the substrate cache still serve
// them.
func (rq request) partitionSub(ctx context.Context, p *ibpmax.Problem) (*ibpmax.PartitionSub, error) {
	var s [2]*ibpmax.PartitionS
	for k, seq := range [2]rna.Sequence{p.Seq1, p.Seq2} {
		var err error
		s[k], _, err = cacheDo(ctx, rq.cache, layerSubstrate,
			func() pipeline.Key { return strandKey(keyPartitionSub, seq, rq.sp, rq.kT) },
			func(bool) (*ibpmax.PartitionS, int64, error) {
				t, err := ibpmax.BuildPartitionS(ctx, p, k+1, rq.kT, rq.cfg)
				if err != nil {
					return nil, 0, err
				}
				if !t.Scaled() {
					rq.metrics.RecordPartitionFallback()
				}
				return t, t.Bytes(), nil
			})
		if err != nil {
			return nil, err
		}
	}
	return ibpmax.NewPartitionSub(p, rq.kT, s[0], s[1])
}

// rung is one table layout the budget may choose: a memory map over the
// band (w1, w2) — the lengths themselves for a full table — and the
// Degradation the fold reports when the budget picks it.
type rung struct {
	deg    Degradation
	kind   ibpmax.MapKind
	w1, w2 int
}

// charge is what the budget bills a rung of an n1 × n2 fold: the table,
// priced by the one memory model (ibpmax.Charge: exact unpooled, the pool's
// footprint after the draw when pooled) at the algebra's cell width, plus
// the Boltzmann substrate a partition fold builds, plus the cache's
// retention.
func (rq request) charge(n1, n2 int, r rung) int64 {
	width, sub := 4, int64(0)
	if rq.algebra == AlgebraPartition {
		width, sub = 8, ibpmax.PartitionSubBytes(n1, n2)
	}
	return ibpmax.Charge(rq.cfg.Pool, n1, n2, r.w1, r.w2, r.kind, width) + sub + rq.cacheRetained()
}

// budget resolves the memory-limit policy for an n1 × n2 fold: it returns
// the (possibly downgraded) solver config, which degradation fired and the
// bytes charged for the chosen layout (0 when unlimited), or a
// *MemoryLimitError naming the smallest charge when nothing permitted fits.
// It allocates nothing.
//
// The ladder is the requested map, then the packed quarter-space map (a
// no-op rung when already selected), then the caller's band if it opted in
// with WithDegradeToWindowed; the first rung whose charge fits is taken. A
// partition fold has no band — the banded fill is max-plus only — so an
// over-budget partition request fails with the typed error instead. A
// scan's one permitted layout is its own band.
func (rq request) budget(n1, n2 int) (cfg ibpmax.Config, deg Degradation, est int64, err error) {
	cfg = rq.cfg
	if rq.memLimit <= 0 {
		return cfg, DegradeNone, 0, nil
	}
	ladder := []rung{
		{DegradeNone, cfg.Map, n1, n2},
		{DegradePacked, ibpmax.MapPacked, n1, n2},
		{DegradeWindowed, ibpmax.MapPacked, rq.degradeW1, rq.degradeW2},
	}
	switch {
	case rq.scan:
		ladder = []rung{{DegradeNone, ibpmax.MapPacked, rq.degradeW1, rq.degradeW2}}
	case rq.degradeW1 <= 0 || rq.degradeW2 <= 0 || rq.algebra == AlgebraPartition:
		ladder = ladder[:2]
	}
	smallest := int64(math.MaxInt64)
	for _, r := range ladder {
		est = rq.charge(n1, n2, r)
		if est <= rq.memLimit {
			cfg.Map = r.kind
			return cfg, r.deg, est, nil
		}
		smallest = min(smallest, est)
	}
	return cfg, DegradeNone, 0, &MemoryLimitError{EstimateBytes: smallest, LimitBytes: rq.memLimit}
}

// checkScoreRange is the numeric limit of the max-plus algebra, applied where
// lengths and model first meet: float32 holds every integer up to 2²⁴, so
// below it sums of integer weights are exact in any order. It guards the
// score itself, and with it the choice of finalize's R2 form: the one-hop
// closure equals the recurrence's chain only while sums are exact, so the
// solver takes it only for integer weights inside this same bound (which it
// re-checks, being callable without the pipeline) and solves R2 by
// substitution otherwise. Either way the table is the recurrence's bit for
// bit, on every schedule.
func (rq request) checkScoreRange(n1, n2 int) error {
	if rq.algebra == AlgebraPartition {
		return nil
	}
	var w float32
	for _, a := range rna.Bases {
		for _, b := range rna.Bases {
			if m := rq.sp.Model; m.Allowed(a, b) {
				w = max(w, float32(math.Abs(float64(m.Pair(a, b)))))
			}
		}
	}
	if float64(w)*float64((n1+n2)/2) >= 1<<24 {
		return &ScoreRangeError{MaxWeight: w, N1: n1, N2: n2}
	}
	return nil
}

// single is the single-strand fold body. The S table goes through the same
// per-strand step as an interaction fold's — it is the same table, so single
// folds and screens share cache entries (cached tables are read-only;
// traceback only reads them) — and a miss builds it on the request's
// parallel runtime.
func (rq request) single(ctx context.Context, seq string) (*SingleResult, error) {
	s, err := rna.New(seq)
	if err != nil {
		return nil, fmt.Errorf("bpmax: %w", err)
	}
	if err := fault.Hit(fault.SiteSubstrate); err != nil {
		return nil, err
	}
	n := s.Len()
	if err := rq.checkScoreRange(n, 0); err != nil {
		return nil, err
	}
	// The S table is built, on a miss, into pooled storage the op hands back
	// once the traceback is done; a cache keeps a clone of it, never it.
	own := rq.cfg.Pool.GetS()
	defer func() { rq.cfg.Pool.PutS(own) }()
	w := score.WeightsOf(s, rq.sp)
	sb := rq.tr.Begin()
	var t *nussinov.Table
	how, err := rq.strandS(ctx, s, w, &own, &t)
	rq.tr.End(how.stage(itrace.StageSubstrate), sb)
	if err != nil {
		return nil, err
	}
	res := &SingleResult{N: n}
	if n > 0 {
		res.Score = t.At(0, n-1)
		tb := rq.tr.Begin()
		pairs := t.Traceback(w.At)
		for _, p := range pairs {
			res.Pairs = append(res.Pairs, Pair{p.I, p.J})
		}
		res.Bracket = nussinov.DotBracket(n, pairs)
		rq.tr.End(itrace.StageTraceback, tb)
	}
	return res, nil
}

// ensemble is the single-strand ensemble body: three semiring fills of one
// strand (log-partition function, structure count, co-optimal count). Through
// the cache step's result layer a strand already seen under the same model
// and kT is served from its retained EnsembleResult instead of refilled. The
// entry is a value copy: immutable by construction, so hits hand out fresh
// copies with no sharing discipline.
func (rq request) ensemble(ctx context.Context, seq string, kT float64) (*EnsembleResult, error) {
	s, err := rna.New(seq)
	if err != nil {
		return nil, fmt.Errorf("bpmax: %w", err)
	}
	build := func(bool) (res EnsembleResult, _ int64, err error) {
		if err := fault.Hit(fault.SiteSubstrate); err != nil {
			return res, 0, err
		}
		intra := score.WeightsOf(s, rq.sp)
		n := s.Len()
		logPair := func(i, j int) float64 {
			w := float64(intra.At(i, j))
			if w < -1e20 {
				return math.Inf(-1)
			}
			return w / kT
		}
		countPair := func(i, j int) float64 {
			if float64(intra.At(i, j)) < -1e20 {
				return 0
			}
			return 1
		}
		optPair := func(i, j int) semiring.Optimum {
			w := intra.At(i, j)
			if float64(w) < -1e20 {
				return semiring.MaxPlusCount{}.Zero()
			}
			return semiring.Optimum{Score: w, Count: 1}
		}
		res = EnsembleResult{KT: kT, Structures: 1, Cooptimal: 1}
		if n > 0 {
			res.LogZ = semiring.Fold[float64](semiring.LogSumExp{}, n, logPair).At(0, n-1)
			res.Structures = semiring.Fold[float64](semiring.Counting{}, n, countPair).At(0, n-1)
			res.Cooptimal = semiring.Fold[semiring.Optimum](semiring.MaxPlusCount{}, n, optPair).At(0, n-1).Count
		}
		// The charged cost is the struct plus the cache's own entry bookkeeping.
		return res, 96, nil
	}
	res, _, err := cacheDo(ctx, rq.cache, layerResult,
		func() pipeline.Key { return strandKey(keyEnsemble, s, rq.sp, kT) }, build)
	if err != nil {
		return nil, err
	}
	return &res, nil
}
