package bpmax

import (
	"context"
	"errors"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// Problem bundles one BPMax instance: the two sequences, the precomputed
// pair-score tables, and the single-strand folding tables S¹ and S² that
// the recurrence consumes ("S¹ and S² can be scheduled before scheduling
// any other variables").
type Problem struct {
	Seq1, Seq2 rna.Sequence
	N1, N2     int
	Tab        *score.Tables
	// S1, S2 are the tables the fill reads: the problem's own, or a substrate
	// cache's shared read-only ones. OwnS1, OwnS2 are the storage the problem
	// builds into and keeps across pooled reuse; only they are ever Reset.
	S1, S2       *nussinov.Table
	OwnS1, OwnS2 *nussinov.Table

	// seqBuf1/seqBuf2 retain the sequence storage across pooled reuse; pl is
	// the owning pool (nil for unpooled problems).
	seqBuf1, seqBuf2 []rna.Base
	pl               *Pool
}

// ProblemBytes is the footprint of an n1 × n2 problem: its three float32
// pair-score tables, its two max-plus S tables at their row pitch with the
// live words their closure fills keep (nussinov.LiveBytes), and a byte per
// base of sequence.
func ProblemBytes(n1, n2 int) int64 {
	s := n1*nussinov.PitchOf(n1, 4) + n2*nussinov.PitchOf(n2, 4)
	return int64(n1*n1+n2*n2+n1*n2+s)*elemBytes[float32]() + nussinov.LiveBytes(n1) + nussinov.LiveBytes(n2) + int64(n1+n2)
}

// Release returns a pooled problem's shell — with its retained sequence
// buffers and O(N²) side tables — to its pool. It is idempotent and a no-op
// for unpooled problems; the problem and its tables must not be used after
// Release.
func (p *Problem) Release() {
	if p == nil || p.pl == nil {
		return
	}
	pl := p.pl
	p.pl = nil
	pl.problems.Put(p)
}

// NewProblem builds the scoring and S tables for a sequence pair, the S
// tables inline and uncancellable (the fold pipeline builds them itself,
// under its request's context and engine). Both sequences must be
// non-empty; the public API layer handles empty inputs by degenerating to
// single-strand folding.
func NewProblem(seq1, seq2 rna.Sequence, p score.Params) (*Problem, error) {
	n1, n2 := seq1.Len(), seq2.Len()
	if n1 == 0 || n2 == 0 {
		return nil, fmt.Errorf("bpmax: both sequences must be non-empty (got %d and %d nt)", n1, n2)
	}
	prob := &Problem{
		Seq1: seq1, Seq2: seq2,
		N1: n1, N2: n2,
		Tab: score.Build(seq1, seq2, p),
	}
	prob.buildS(p.Model)
	return prob, nil
}

// buildS fills S¹ and S² under model m on the calling goroutine; a
// background context never cancels, so neither build fails.
func (p *Problem) buildS(m score.Model) {
	ctx, cfg := context.Background(), Config{Workers: 1}
	p.OwnS1, _ = BuildS(ctx, p.OwnS1, &p.Tab.W1, m, cfg)
	p.OwnS2, _ = BuildS(ctx, p.OwnS2, &p.Tab.W2, m, cfg)
	p.S1, p.S2 = p.OwnS1, p.OwnS2
}

// BuildS is the build of every max-plus S table — an interaction fold's S¹
// and S², a single strand's — from the strand's weight view w under model m:
// the row-streamed fill into t (allocated when nil, Reset otherwise — its
// cells not zeroed, the fill writes every one it reads), stopping within one
// row or tile wavefront of a cancelled ctx, on cfg's parallel runtime where
// nussinov tiles the table. Each row's pair weights are one of w's four base
// rows, read in place. Where m's sums over n bases are exact (score.Grid.Exact,
// O(1) from the model) the rows finish by the closure sweep. It returns the
// table it filled, partially on an error.
func BuildS(ctx context.Context, t *nussinov.Table, w *score.Weights, m score.Model, cfg Config) (*nussinov.Table, error) {
	if t == nil {
		t = &nussinov.Table{}
	}
	n := w.Len()
	t.Reset(n)
	return t, t.FillContext(ctx, semiring.MaxPlusKernels(true), 0, w.Rows, score.GridOf(m).Exact(n), cfg.ParallelFor(n))
}

// errInexact is a max-plus solve's refusal of a problem outside float32's
// exact range, where finalize's one-hop R2 and R0's dominated splits fail;
// the fold pipeline refuses such folds first (*bpmax.ScoreRangeError).
var errInexact = errors.New("bpmax: max-plus sums can round in float32")

// exact returns nil where every sum a max-plus fill of p forms is exact
// (score.Grid.Exact over N1+N2 bases), an errInexact otherwise.
func (p *Problem) exact() error {
	if g := p.Tab.Grid; !g.Exact(p.N1 + p.N2) {
		return fmt.Errorf("%w: weights up to %v on a 2^-%d grid over %d+%d nt", errInexact, g.MaxWeight, g.Exp, p.N1, p.N2)
	}
	return nil
}

// score1 is the intramolecular pair weight for seq1 positions (i, j).
func (p *Problem) score1(i, j int) float32 { return p.Tab.Score1(i, j) }

// score2 is the intramolecular pair weight for seq2 positions (i, j).
func (p *Problem) score2(i, j int) float32 { return p.Tab.Score2(i, j) }

// iscore is the intermolecular pair weight between seq1 position i1 and
// seq2 position i2. The recurrence's singleton base case uses
// max(0, iscore): two unpaired single bases score 0.
func (p *Problem) iscore(i1, i2 int) float32 { return p.Tab.IScore(i1, i2) }

// singleton returns the base-case value F[i,i,k,k] = max(0, iscore(i,k)).
func (p *Problem) singleton(i1, i2 int) float32 {
	if v := p.iscore(i1, i2); v > 0 {
		return v
	}
	return 0
}
