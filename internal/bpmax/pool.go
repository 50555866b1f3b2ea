package bpmax

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/bufpool"
	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// Pool recycles the per-fold state that otherwise dominates a screening
// workload's allocation profile: the Θ(N²M²) F table, full or banded
// (size-classed float32 arenas with exact retained-byte accounting, see
// bufpool), and the small fixed-shape shells — Problem (with its sequence
// buffers and O(N²) side tables), FTable and solver (with its hoisted task
// closures) — and a single-strand fold's S table on sync.Pool freelists.
//
// Correctness contract: a pooled fold is bit-identical to a fresh one.
// Every float32 buffer leaves the arena zeroed, and sequence, score and
// Nussinov table storage is reused unzeroed: every cell a fold reads is
// overwritten before it is read (BuildS writes every cell of [0, n)², and
// nothing reads an S table's pitch padding), so no state can leak from one
// fold into the next — including after a cancelled or a panicked fold, whose
// buffers either return through the normal error path or are abandoned to
// the garbage collector (the pool simply misses; it is never poisoned).
//
// The zero value is ready to use and safe for concurrent use.
//
// The arenas come in two element widths: the float32 set serves the
// max-plus tables (the historical hot path, untouched by the algebra
// refactor) and the float64 set serves the partition tables and matrices.
// Each scalar has its own buffer arena and shell freelists so a mixed
// workload never cross-pollutes classes; the reuse counters are shared
// (a shell is a shell).
type Pool struct {
	buf       bufpool.Pool
	buf64     bufpool.PoolOf[float64]
	problems  sync.Pool // *Problem
	ftables   sync.Pool // *FTable
	ftables64 sync.Pool // *FTableOf[float64]
	solvers   sync.Pool // *solver
	solvers64 sync.Pool // *gsolver[float64]
	strands   sync.Pool // *nussinov.Table: single-strand folds' S tables

	// Reuse counters per shell kind (hit = recycled shell, miss = fresh
	// allocation). One atomic add per fold per kind; always on.
	problemHits, problemMisses atomic.Int64
	ftableHits, ftableMisses   atomic.Int64
	solverHits, solverMisses   atomic.Int64
}

// count increments hit or miss depending on whether the sync.Pool served a
// recycled shell.
func count(hit, miss *atomic.Int64, reused bool) {
	if reused {
		hit.Add(1)
	} else {
		miss.Add(1)
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// SequenceError reports an invalid input sequence from the pooled problem
// constructor; Index is 1 or 2. The public API maps it onto the same error
// text the unpooled path produces.
type SequenceError struct {
	Index int
	Err   error
}

func (e *SequenceError) Error() string {
	return fmt.Sprintf("sequence %d: %v", e.Index, e.Err)
}

func (e *SequenceError) Unwrap() error { return e.Err }

// NewProblem is NewProblem building from raw strings into pooled storage.
// The returned problem must be handed back with Problem.Release once its
// tables are no longer referenced.
func (pl *Pool) NewProblem(seq1, seq2 string, params score.Params) (*Problem, error) {
	p, err := pl.NewProblemShell(seq1, seq2, params)
	if err != nil {
		return nil, err
	}
	p.buildS(params.Model)
	return p, nil
}

// NewProblemShell is NewProblem without the two O(n³) Nussinov fills; the
// caller follows up with BuildS for each strand or points S1/S2 at cached
// tables. A recycled shell forgets the tables its last fold read — possibly a
// cache's — and keeps only its own storage. A nil pool builds a fresh,
// unpooled shell the same way.
func (pl *Pool) NewProblemShell(seq1, seq2 string, params score.Params) (*Problem, error) {
	var p *Problem
	if pl != nil {
		p, _ = pl.problems.Get().(*Problem)
		count(&pl.problemHits, &pl.problemMisses, p != nil)
	}
	if p == nil {
		p = &Problem{}
	}
	p.pl = pl // from here an error exit hands the shell back with Release
	p.S1, p.S2 = nil, nil
	var err error
	if p.Seq1, p.seqBuf1, err = rna.NewInto(p.seqBuf1, seq1); err != nil {
		p.Release()
		return nil, &SequenceError{Index: 1, Err: err}
	}
	if p.Seq2, p.seqBuf2, err = rna.NewInto(p.seqBuf2, seq2); err != nil {
		p.Release()
		return nil, &SequenceError{Index: 2, Err: err}
	}
	p.N1, p.N2 = p.Seq1.Len(), p.Seq2.Len()
	if p.N1 == 0 || p.N2 == 0 {
		p.Release()
		return nil, fmt.Errorf("bpmax: both sequences must be non-empty (got %d and %d nt)", p.N1, p.N2)
	}
	if p.Tab == nil {
		p.Tab = &score.Tables{}
	}
	score.BuildInto(p.Tab, p.Seq1, p.Seq2, params)
	return p, nil
}

// GetS returns a single-strand fold's S table to build over, its cells
// whatever its last fold left, or nil (BuildS allocates) when pl is nil or
// holds none.
func (pl *Pool) GetS() *nussinov.Table {
	if pl == nil {
		return nil
	}
	t, _ := pl.strands.Get().(*nussinov.Table)
	return t
}

// PutS takes a table GetS gave back once nothing reads it — never one a
// cache retains. A nil pl or t is a no-op.
func (pl *Pool) PutS(t *nussinov.Table) {
	if pl != nil && t != nil {
		pl.strands.Put(t)
	}
}

// getSolver returns a recycled solver shell (its hoisted task closures, if
// already built, come along, so repeat folds allocate no closures).
func (pl *Pool) getSolver() *solver {
	s, _ := pl.solvers.Get().(*solver)
	count(&pl.solverHits, &pl.solverMisses, s != nil)
	if s == nil {
		s = &solver{}
	}
	return s
}

func (pl *Pool) putSolver(s *solver) { pl.solvers.Put(s) }

// tableArena routes a table of element type T to pl's shell freelist and
// buffer arena for that width (Go methods cannot take type parameters, so
// the per-scalar arenas are reached through free functions). It returns nils
// for a nil pool and for scalars outside the two pooled instantiations. The
// pointer-to-interface conversions don't allocate, so pooled folds keep
// their steady state.
func tableArena[T semiring.Scalar](pl *Pool) (*sync.Pool, *bufpool.PoolOf[T]) {
	if pl == nil {
		return nil, nil
	}
	if b, ok := any(&pl.buf).(*bufpool.PoolOf[T]); ok {
		return &pl.ftables, b
	}
	if b, ok := any(&pl.buf64).(*bufpool.PoolOf[T]); ok {
		return &pl.ftables64, b
	}
	return nil, nil
}

// poolGetSolver is getSolver routed by element type; see tableArena.
func poolGetSolver[T semiring.Scalar](pl *Pool) *gsolver[T] {
	var zero T
	switch any(zero).(type) {
	case float32:
		return any(pl.getSolver()).(*gsolver[T])
	case float64:
		s, _ := pl.solvers64.Get().(*gsolver[float64])
		count(&pl.solverHits, &pl.solverMisses, s != nil)
		if s == nil {
			s = &gsolver[float64]{}
		}
		return any(s).(*gsolver[T])
	}
	return &gsolver[T]{}
}

// poolPutSolver is putSolver routed by element type; shells of unsupported
// scalars are dropped to the garbage collector.
func poolPutSolver[T semiring.Scalar](pl *Pool, s *gsolver[T]) {
	switch t := any(s).(type) {
	case *solver:
		pl.putSolver(t)
	case *gsolver[float64]:
		pl.solvers64.Put(t)
	}
}

// RetainedBytes returns the bytes currently parked in the pool's scalar
// arenas (both element widths) — the storage WithMemoryLimit must count
// against its budget. The struct shells and their O(N²) side tables live on
// GC-managed sync.Pool freelists and are not counted; the F tables dominate
// by orders of magnitude at any size where budgeting matters.
func (pl *Pool) RetainedBytes() int64 {
	return pl.buf.RetainedBytes() + pl.buf64.RetainedBytes()
}

// Trim releases every idle pooled buffer (both element widths) to the
// garbage collector and returns how many bytes were freed.
func (pl *Pool) Trim() int64 { return pl.buf.Trim() + pl.buf64.Trim() }

// Stats snapshots the pool's reuse counters and the arenas' buffer
// statistics. Counters are cumulative since the pool was created. The two
// scalar arenas are summed into one BufferStats (RetainedHighWater is the
// sum of the per-arena high-waters — an upper bound on the true combined
// high-water, which the arenas do not track jointly).
func (pl *Pool) Stats() metrics.PoolStats {
	b32 := pl.buf.Stats()
	b64 := pl.buf64.Stats()
	return metrics.PoolStats{
		ProblemHits:   pl.problemHits.Load(),
		ProblemMisses: pl.problemMisses.Load(),
		FTableHits:    pl.ftableHits.Load(),
		FTableMisses:  pl.ftableMisses.Load(),
		SolverHits:    pl.solverHits.Load(),
		SolverMisses:  pl.solverMisses.Load(),
		Buffers: metrics.BufferStats{
			Gets:              b32.Gets + b64.Gets,
			Hits:              b32.Hits + b64.Hits,
			Misses:            b32.Misses + b64.Misses,
			Puts:              b32.Puts + b64.Puts,
			Drops:             b32.Drops + b64.Drops,
			Live:              b32.Live + b64.Live,
			RetainedBytes:     b32.RetainedBytes + b64.RetainedBytes,
			RetainedHighWater: b32.RetainedHighWater + b64.RetainedHighWater,
		},
	}
}
