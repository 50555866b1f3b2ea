// Package bpmax predicts RNA-RNA interactions with the BPMax base-pair
// maximization algorithm, in the heavily optimized formulation of
// "Accelerating the BPMax Algorithm for RNA-RNA Interaction"
// (Mondal & Rajopadhye, IPDPS Workshops 2021).
//
// BPMax computes, for two RNA strands, the maximum weighted number of base
// pairs over all joint pseudoknot-free secondary structures — both strands
// may fold internally and bond to each other. The dynamic program costs
// Θ(N³M³) time and Θ(N²M²) space for strands of N and M nucleotides, so
// schedule, locality and parallelism decide whether a fold takes minutes
// or days; this package implements the paper's full ladder of schedules,
// from the original diagonal-by-diagonal program to the tiled hybrid
// schedule that reaches ~100× the baseline.
//
// # Quick start
//
//	res, err := bpmax.Fold("GGGAAACCC", "GGGUUUCCC")
//	if err != nil { ... }
//	fmt.Println(res.Score)              // optimal weighted pair count
//	st := res.Structure()               // one optimal joint structure
//	fmt.Println(st.Bracket1, st.Bracket2)
//
// Fold defaults to the fastest variant (hybrid + tiling) on all CPUs.
// Options select other schedules, worker counts, scoring models and
// windowed (local) scans; see the With* functions.
package bpmax

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// Variant names one of the paper's execution schedules.
type Variant string

// The available schedules, from slowest to fastest on multicore hardware.
const (
	// Base is the original BPMax program: sequential, per-cell gather
	// reductions. The 1× baseline of the paper's speedup plots.
	Base Variant = "base"
	// Coarse parallelizes across inner triangles of a wavefront.
	Coarse Variant = "coarse"
	// Fine parallelizes across rows within one triangle at a time.
	Fine Variant = "fine"
	// Hybrid combines fine-grain accumulation with coarse-grain updates.
	Hybrid Variant = "hybrid"
	// HybridTiled adds double max-plus tiling to Hybrid; the default and
	// the paper's best performer.
	HybridTiled Variant = "hybrid-tiled"
)

// SubstrateAlgorithm names the algorithm that fills the per-strand Nussinov
// substrate tables (S¹/S²) before the interaction DP runs.
type SubstrateAlgorithm string

const (
	// SubstrateAuto (the default) is the row-streamed O(n³) fill on the
	// vector max-plus kernels, at every strand length and for every score
	// model. It is the only substrate fill: the Four-Russians tabulation
	// lost to it at every size measured (docs/PERFORMANCE.md) and is not
	// selectable.
	SubstrateAuto SubstrateAlgorithm = "auto"
	// SubstrateClassic names the same streamed fill explicitly.
	SubstrateClassic SubstrateAlgorithm = "classic"
)

// Algebra names the semiring the interaction DP is evaluated in. Every
// execution schedule serves every algebra — the recurrence and the fill
// order are shared; only the scalar type and the ⊕ operation differ.
type Algebra string

const (
	// AlgebraMaxPlus (the default) is BPMax proper: (max, +) over float32.
	// Result.Score is the optimal weighted pair count and Structure recovers
	// one optimum by traceback.
	AlgebraMaxPlus Algebra = "maxplus"
	// AlgebraPartition is BPPart: a sum-product over float64 with every pair
	// weight w a Boltzmann factor e^{w/kT} (see WithKT). Result.LogZ is the
	// log of the derivation-weighted ensemble sum; it upper-bounds Score/kT
	// (a sum is at least its largest term) and kT·LogZ → Score as kT → 0.
	// The fill runs in a per-nucleotide-scaled linear domain and falls back
	// to the log domain by itself when that would leave float64's range;
	// both return the same LogZ (FoldMetrics.PartitionDomain says which). Score,
	// Structure, BestLocal and windowed scans are max-plus notions and are
	// unavailable on partition results.
	AlgebraPartition Algebra = "partition"
)

// Weights configures the base-pair scoring model.
type Weights struct {
	// GC, AU, GU are the pair weights; pairs not listed are forbidden.
	// The zero value selects the canonical weighted counting model
	// GC=3, AU=2, GU=1. Each weight is rounded to the nearest multiple of
	// 2⁻⁸, ties to even (2.75 is kept, 3.1 becomes 794/256), so every
	// max-plus sum is exact in float32 (ScoreRangeError states the range).
	GC, AU, GU float32
	// Unit, when true, overrides the weights with plain pair counting
	// (every canonical pair scores 1).
	Unit bool
}

type options struct {
	variant    Variant
	cfg        ibpmax.Config
	weights    Weights
	minHairpin int
	// memLimit caps the F-table bytes a fold may allocate (0 = unlimited);
	// see WithMemoryLimit.
	memLimit int64
	// degradeW1/degradeW2, when positive, allow an over-budget fold to fall
	// back to a windowed scan; see WithDegradeToWindowed.
	degradeW1, degradeW2 int
	// pool, when set via WithPool, recycles fold state (tables, problem
	// substrates, result shells) across calls; cfg.Pool mirrors it at the
	// solver layer.
	pool *Pool
	// engine, when set via WithEngine, is the persistent worker team;
	// cfg.Engine mirrors it at the solver layer.
	engine *Engine
	// metrics, when set via WithMetrics, aggregates every fill run with
	// these options; per-fold records land in Result.Metrics (cfg.Metrics
	// is pointed at it for the solve) whether or not it is set.
	metrics *Metrics
	// cache, when set via WithCache, serves substrate tables and whole
	// results from the content-addressed cache.
	cache *Cache
	// admission, when set via WithAdmission, gates requests through a
	// bounded-concurrency FIFO before they solve.
	admission *Admission
	// retry, when set via WithRetry, re-runs transiently failed folds with
	// exponential backoff; see IsTransient for what qualifies.
	retry *RetryConfig
	// substrate selects the S¹/S² fill algorithm; empty means SubstrateAuto.
	substrate SubstrateAlgorithm
	// algebra selects the evaluation semiring; empty means AlgebraMaxPlus.
	// kT is the Boltzmann temperature factor of AlgebraPartition; 0 means
	// the default 1.0 (buildOptions normalizes both).
	algebra Algebra
	kT      float64
}

// Option customizes Fold, FoldSingle and ScanWindowed.
type Option func(*options)

// WithVariant selects the execution schedule (default HybridTiled).
func WithVariant(v Variant) Option { return func(o *options) { o.variant = v } }

// WithWorkers caps the number of parallel workers (default: GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *options) { o.cfg.Workers = n } }

// WithPackedMemory switches the inner-triangle memory map from the default
// bounding box (fast) to the packed quarter-space map (half the memory,
// paper's Fig 10 option 2).
func WithPackedMemory() Option {
	return func(o *options) { o.cfg.Map = ibpmax.MapPacked }
}

// WithWeights sets the base-pair scoring weights, each rounded to the
// nearest multiple of 2⁻⁸ (see Weights).
func WithWeights(w Weights) Option { return func(o *options) { o.weights = w } }

// WithMinHairpin forbids intramolecular pairs (i, j) with j-i <= n,
// modelling a minimum hairpin loop (default 0, BPMax's counting model).
func WithMinHairpin(n int) Option { return func(o *options) { o.minHairpin = n } }

// WithSubstrateAlgorithm names the fill of the per-strand substrate tables.
// There is one — SubstrateAuto and SubstrateClassic (and "") both name the
// row-streamed fill — so the option only checks the name: any other value
// is an option error from NewSession and from every fold.
func WithSubstrateAlgorithm(a SubstrateAlgorithm) Option {
	return func(o *options) { o.substrate = a }
}

// WithAlgebra selects the evaluation semiring (default AlgebraMaxPlus).
// AlgebraPartition computes the BPPart log-partition function LogZ instead
// of the optimal score; see the Algebra constants for what each result
// carries. Cached entries are algebra-qualified — the two modes never
// cross-serve — and max-plus behavior (results, cache keys, allocation
// profile) is bit-for-bit unchanged by the existence of this option.
func WithAlgebra(a Algebra) Option { return func(o *options) { o.algebra = a } }

// WithKT sets the Boltzmann temperature factor kT of AlgebraPartition, in
// units of pair weight (default 1.0; must be positive and finite). Small kT
// sharpens the ensemble toward the optimum: kT·LogZ → Score as kT → 0.
// It has no effect under AlgebraMaxPlus.
func WithKT(kT float64) Option { return func(o *options) { o.kT = kT } }

// buildOptions parses an option list into the pipeline's request form: the
// accumulated options plus the resolved scoring parameters and schedule
// variant. Every public entry point calls it exactly once per request (and
// FoldBatch once per batch); the request's stage methods in pipeline.go do
// the rest.
func buildOptions(opts []Option) request {
	o := options{variant: HybridTiled}
	for _, fn := range opts {
		fn(&o)
	}
	if o.algebra == "" {
		o.algebra = AlgebraMaxPlus
	}
	if o.kT == 0 {
		o.kT = 1.0
	}
	rq := request{options: o, sp: o.params()}
	rq.v, rq.verr = o.internalVariant()
	rq.aerr = o.checkSubstrate()
	rq.algErr = o.checkAlgebra()
	return rq
}

// checkAlgebra validates the WithAlgebra/WithKT combination. Like an unknown
// variant, the error is resolved here and surfaced by the entry points that
// would evaluate the algebra.
func (o options) checkAlgebra() error {
	switch o.algebra {
	case AlgebraMaxPlus:
		return nil
	case AlgebraPartition:
		if !(o.kT > 0) || math.IsInf(o.kT, 1) {
			return fmt.Errorf("bpmax: partition kT must be positive and finite (got %v)", o.kT)
		}
		return nil
	}
	return fmt.Errorf("bpmax: unknown algebra %q", o.algebra)
}

func (o options) checkSubstrate() error {
	switch o.substrate {
	case SubstrateAuto, SubstrateClassic, "":
		return nil
	}
	return fmt.Errorf("bpmax: unknown substrate algorithm %q (accepted: %q, %q)", o.substrate, SubstrateAuto, SubstrateClassic)
}

func (o options) params() score.Params {
	p := score.Params{MinHairpin: o.minHairpin}
	switch {
	case o.weights.Unit:
		p.Model = score.Unit()
	case o.weights == (Weights{}):
		p.Model = score.BasePair()
	default:
		p.Model = score.Custom("custom", map[[2]rna.Base]score.Value{
			{rna.G, rna.C}: o.weights.GC,
			{rna.A, rna.U}: o.weights.AU,
			{rna.G, rna.U}: o.weights.GU,
		})
	}
	return p
}

func (o options) internalVariant() (ibpmax.Variant, error) {
	switch o.variant {
	case Base:
		return ibpmax.VariantBase, nil
	case Coarse:
		return ibpmax.VariantCoarse, nil
	case Fine:
		return ibpmax.VariantFine, nil
	case Hybrid:
		return ibpmax.VariantHybrid, nil
	case HybridTiled, "":
		return ibpmax.VariantHybridTiled, nil
	}
	return 0, fmt.Errorf("bpmax: unknown variant %q", o.variant)
}

// Pair is an intramolecular base pair (positions I < J, 0-based).
type Pair struct{ I, J int }

// InterPair is an intermolecular bond between seq1 position I1 and seq2
// position I2 (both 0-based).
type InterPair struct{ I1, I2 int }

// Structure is one optimal joint secondary structure. Bracket1/Bracket2
// render each strand with '(' ')' for intramolecular pairs and '[' for
// intermolecularly bonded positions.
type Structure struct {
	Intra1, Intra2     []Pair
	Inter              []InterPair
	Bracket1, Bracket2 string
}

// Result holds a completed interaction fold.
type Result struct {
	// Score is the optimal weighted base-pair count F[0,N1-1,0,N2-1].
	// It is meaningful only under AlgebraMaxPlus (0 on partition results;
	// the ensemble has no single optimal score — read LogZ instead).
	Score float32
	// Algebra records which semiring produced this result: AlgebraMaxPlus
	// (Score, SubScore, Structure, BestLocal apply) or AlgebraPartition
	// (LogZ, SubLogZ apply).
	Algebra Algebra
	// LogZ is the whole-pair log-partition value log Z = F[0,N1-1,0,N2-1]
	// of the Boltzmann-weighted interaction ensemble, set only under
	// AlgebraPartition. It satisfies LogZ >= (max-plus Score)/KT — the
	// ensemble always dominates its optimum — with kT·LogZ → Score as
	// kT → 0.
	LogZ float64
	// LogZ1, LogZ2 are the per-strand single-strand log-partition values
	// (the partition substrates' whole-strand cells), the AlgebraPartition
	// counterparts of SingleScore1/SingleScore2 over the full strand.
	LogZ1, LogZ2 float64
	// KT echoes the temperature factor of a partition fold (0 otherwise).
	KT float64
	// N1, N2 are the sequence lengths.
	N1, N2 int
	// FLOPs is the analytic max-plus operation count of the fill.
	FLOPs int64
	// Elapsed is the wall time of the table fill.
	Elapsed time.Duration
	// TableBytes is the F-table storage footprint.
	TableBytes int64
	// Degradation records which memory fallback, if any, produced this
	// result (DegradeNone for an ordinary full-table fold); see
	// WithMemoryLimit and WithDegradeToWindowed.
	Degradation Degradation
	// Window holds the windowed scan backing this result when Degradation
	// is DegradeWindowed, nil otherwise. In that mode Score is the best
	// in-window interaction score (not the full-pair optimum), FLOPs is 0,
	// and SubScore is defined only for in-window cells.
	Window *WindowResult
	// Metrics is the fold's instrumentation record (schedule, kernel, phase
	// timings, wavefronts, derived rates), written by the fill that produced
	// this result's table. On a result served from the cache it is — like
	// Elapsed — the record of the fill that built the retained master, not
	// of this call.
	Metrics FoldMetrics

	prob *ibpmax.Problem
	ft   *ibpmax.FTable
	// ft64/ps back a partition result: the float64 BPPart table and the
	// Boltzmann substrate it was filled from (ft is then nil). Each carries
	// its own number domain; SubLogZ converts on read.
	ft64 *ibpmax.FTableOf[float64]
	ps   *ibpmax.PartitionSub
	// st memoizes the traceback. A result-cache master allocates it, so every
	// copy adoptCached hands out shares the one cell; any other result gets
	// its own on first use.
	st   *tracedStructure
	pool *Pool
}

// tracedStructure is a traceback run at most once, whichever of the results
// sharing it asks first — concurrently, for copies of a cached master.
type tracedStructure struct {
	once sync.Once
	st   *Structure
}

// requireMaxPlus guards the accessors whose meaning exists only in the
// tropical algebra (scores, structures, local maxima).
func (r *Result) requireMaxPlus(what string) {
	if r.Algebra == AlgebraPartition {
		panic("bpmax: " + what + " is undefined on a partition (BPPart) result; use LogZ/SubLogZ")
	}
}

// Fold computes the BPMax interaction of two RNA sequences given as
// strings (IUPAC letters ACGU; T and lower case accepted). It is
// FoldContext with a background context: uncancellable, no deadline.
func Fold(seq1, seq2 string, opts ...Option) (*Result, error) {
	return FoldContext(context.Background(), seq1, seq2, opts...)
}

// SubScore returns F[i1,j1,i2,j2]: the optimal score for the interaction of
// seq1[i1..j1] with seq2[i2..j2] (closed intervals). Empty intervals
// (j < i) are allowed and resolve to the single-strand optimum of the other
// interval. On a result that degraded to a windowed scan only in-window
// cells are stored; SubScore panics on cells outside the band (check
// Degradation, or Window.InWindow, first).
func (r *Result) SubScore(i1, j1, i2, j2 int) float32 {
	r.requireMaxPlus("SubScore")
	if j1 < i1 && j2 < i2 {
		return 0
	}
	return r.at(i1, j1, i2, j2)
}

// SubLogZ returns the log-partition value of the sub-ensemble
// F[i1,j1,i2,j2]: the interaction of seq1[i1..j1] with seq2[i2..j2]
// (closed intervals; empty intervals resolve to the other strand's
// single-strand ensemble, both empty to log 1 = 0). It is defined only on
// AlgebraPartition results and panics otherwise.
func (r *Result) SubLogZ(i1, j1, i2, j2 int) float64 {
	if r.Algebra != AlgebraPartition {
		panic("bpmax: SubLogZ on a non-partition result; fold with WithAlgebra(AlgebraPartition)")
	}
	switch {
	case j1 < i1 && j2 < i2:
		return 0
	case j1 < i1:
		return r.ps.S2.LogAt(i2, j2)
	case j2 < i2:
		return r.ps.S1.LogAt(i1, j1)
	}
	return r.ft64.LogAt(i1, j1, i2, j2)
}

func (r *Result) at(i1, j1, i2, j2 int) float32 {
	if j1 < i1 {
		return r.SingleScore2(i2, j2)
	}
	if j2 < i2 {
		return r.SingleScore1(i1, j1)
	}
	if !r.ft.InWindow(i1, j1, i2, j2) {
		panic(fmt.Sprintf("bpmax: SubScore(%d,%d,%d,%d) outside the windowed band of a degraded fold", i1, j1, i2, j2))
	}
	return r.ft.At(i1, j1, i2, j2)
}

// SingleScore1 returns S¹[i,j], the single-strand optimum of seq1[i..j].
func (r *Result) SingleScore1(i, j int) float32 { return r.prob.S1.At(i, j) }

// SingleScore2 returns S²[i,j], the single-strand optimum of seq2[i..j].
func (r *Result) SingleScore2(i, j int) float32 { return r.prob.S2.At(i, j) }

// Structure recovers one optimal joint structure by traceback (computed
// once and cached): of the whole pair, or, on a fold that degraded to a
// windowed scan, of the best in-window interaction. On a result served
// through WithCache's result layer the traceback runs once per retained
// master, not once per hit: every copy returns the same *Structure, shared
// with concurrent callers and valid after Release — treat it as read-only.
func (r *Result) Structure() *Structure {
	r.requireMaxPlus("Structure")
	if r.st == nil {
		r.st = &tracedStructure{}
	}
	c := r.st
	c.once.Do(func() {
		i1, j1, i2, j2 := 0, r.N1-1, 0, r.N2-1
		if w := r.Window; w != nil {
			i1, j1, i2, j2 = w.I1, w.J1, w.I2, w.J2
		}
		c.st = structureFrom(r.prob, r.ft, i1, j1, i2, j2)
	})
	return c.st
}

// structureFrom traces stored cell (i1, j1, i2, j2) of a filled table back
// into a Structure.
func structureFrom(p *ibpmax.Problem, ft *ibpmax.FTable, i1, j1, i2, j2 int) *Structure {
	ist := ibpmax.TracebackFrom(p, ft, i1, j1, i2, j2)
	st := &Structure{}
	for _, p := range ist.Intra1 {
		st.Intra1 = append(st.Intra1, Pair{p.I, p.J})
	}
	for _, p := range ist.Intra2 {
		st.Intra2 = append(st.Intra2, Pair{p.I, p.J})
	}
	for _, p := range ist.Inter {
		st.Inter = append(st.Inter, InterPair{p.I1, p.I2})
	}
	st.Bracket1, st.Bracket2 = ist.DotBracket(p.N1, p.N2)
	return st
}

// BestLocal scans the filled table for the interval pair with the highest
// interaction score among those with spans j1-i1 < maxSpan1 and
// j2-i2 < maxSpan2 (pass values >= the lengths for an unrestricted scan;
// the full pair always maximizes an unrestricted scan because F is
// monotone under widening). It answers "where is the strongest local
// interaction?" without refolding.
func (r *Result) BestLocal(maxSpan1, maxSpan2 int) (score float32, i1, j1, i2, j2 int) {
	r.requireMaxPlus("BestLocal")
	return r.ft.BestWithin(maxSpan1, maxSpan2)
}

// GFLOPS returns the effective max-plus throughput of the fill.
func (r *Result) GFLOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.FLOPs) / r.Elapsed.Seconds() / 1e9
}

// SingleResult holds a single-strand (Nussinov) fold.
type SingleResult struct {
	// Score is the optimal weighted pair count S[0, N-1].
	Score float32
	// N is the sequence length.
	N int
	// Pairs is one optimal pair set.
	Pairs []Pair
	// Bracket is the dot-bracket rendering of Pairs.
	Bracket string
}

// FoldSingle folds one RNA strand on its own (the S-table substrate,
// exposed because it is independently useful). It is FoldSingleContext
// with a background context.
func FoldSingle(seq string, opts ...Option) (*SingleResult, error) {
	return FoldSingleContext(context.Background(), seq, opts...)
}

// FoldSingleContext is FoldSingle with cooperative cancellation, checked
// once per anti-diagonal wavefront of the S-table build. It routes through
// the request pipeline with the same guarantees as FoldContext: with
// WithCache the strand's S table is shared with interaction folds,
// WithAdmission gates it, WithRetry re-runs transient failures, a panic
// surfaces as a *PanicError, and a parallel build (WithWorkers > 1) runs on
// the request's Engine when one is set.
func FoldSingleContext(ctx context.Context, seq string, opts ...Option) (*SingleResult, error) {
	return buildOptions(opts).runSingle(ctx, seq)
}

// EnsembleResult summarizes the Boltzmann ensemble of one strand's
// structures: the log partition value at temperature factor kT and the
// total number of admissible structures. It is the BPPart-flavoured
// companion signal to the max-plus score (the paper's motivation: the
// simplified counting models correlate strongly with the full
// thermodynamic model).
type EnsembleResult struct {
	// LogZ is log Σ_structures exp(weight/kT).
	LogZ float64
	// Structures counts the admissible (non-crossing) structures,
	// including the empty one.
	Structures float64
	// Cooptimal counts the structures achieving the optimal score — the
	// degeneracy of the max-plus optimum.
	Cooptimal float64
	// KT echoes the temperature factor used.
	KT float64
}

// SingleEnsemble computes the single-strand Boltzmann ensemble signal for
// seq at temperature factor kT (in units of pair weight; small kT
// approaches the max-plus optimum: kT·LogZ → Score). It routes through the
// request pipeline (admission, retry, panic isolation, error accounting),
// and with WithCache the whole ensemble result is served from the
// content-addressed cache under an algebra-qualified key.
func SingleEnsemble(seq string, kT float64, opts ...Option) (*EnsembleResult, error) {
	return buildOptions(opts).runEnsemble(seq, kT)
}

// WindowResult holds a windowed (banded) scan: every interval pair with
// spans below the window sizes, at Θ(N·W1·M·W2·(W1+W2)·…) cost instead of
// the full table's Θ(N³M³).
type WindowResult struct {
	// Best is the maximum interaction score over all in-window interval
	// pairs, and I1..J2 one cell achieving it.
	Best           float32
	I1, J1, I2, J2 int
	// TableBytes is the banded storage footprint.
	TableBytes int64
	// Elapsed is the wall time of the banded fill.
	Elapsed time.Duration
	// Metrics is the scan's instrumentation record, written by the banded
	// fill.
	Metrics FoldMetrics

	ft   *ibpmax.FTable
	prob *ibpmax.Problem
	pool *Pool
}

// Structure recovers one optimal structure for the best in-window cell.
func (w *WindowResult) Structure() *Structure {
	return structureFrom(w.prob, w.ft, w.I1, w.J1, w.I2, w.J2)
}

// ScanWindowed computes all interactions between subsequences of seq1
// shorter than w1 and subsequences of seq2 shorter than w2 — the local
// interaction screen used when full-table memory is prohibitive. It is
// ScanWindowedContext with a background context.
func ScanWindowed(seq1, seq2 string, w1, w2 int, opts ...Option) (*WindowResult, error) {
	return ScanWindowedContext(context.Background(), seq1, seq2, w1, w2, opts...)
}

// ScanWindowedContext is ScanWindowed with cooperative cancellation and
// panic isolation (see FoldContext for the guarantees) and memory
// budgeting: with WithMemoryLimit set, an over-budget band is rejected with
// a *MemoryLimitError before any allocation. It routes through the request
// pipeline: WithAdmission gates it, and WithCache shares the strands' S
// substrate tables (the banded result itself is not cached).
func ScanWindowedContext(ctx context.Context, seq1, seq2 string, w1, w2 int, opts ...Option) (*WindowResult, error) {
	return buildOptions(opts).runWindowed(ctx, seq1, seq2, w1, w2)
}

// At returns the windowed table value F[i1,j1,i2,j2]; the cell must satisfy
// j1-i1 < w1 and j2-i2 < w2.
func (w *WindowResult) At(i1, j1, i2, j2 int) float32 { return w.ft.At(i1, j1, i2, j2) }

// InWindow reports whether a cell is inside the scanned band.
func (w *WindowResult) InWindow(i1, j1, i2, j2 int) bool { return w.ft.InWindow(i1, j1, i2, j2) }
