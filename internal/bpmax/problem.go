package bpmax

import (
	"fmt"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// Problem bundles one BPMax instance: the two sequences, the precomputed
// pair-score tables, and the single-strand folding tables S¹ and S² that
// the recurrence consumes ("S¹ and S² can be scheduled before scheduling
// any other variables").
type Problem struct {
	Seq1, Seq2 rna.Sequence
	N1, N2     int
	Tab        *score.Tables
	S1, S2     *nussinov.Table

	// seqBuf1/seqBuf2 retain the sequence storage across pooled reuse; pl is
	// the owning pool (nil for unpooled problems).
	seqBuf1, seqBuf2 []rna.Base
	pl               *Pool
	// When the substrate cache installs a shared S table via ShareS1/ShareS2,
	// the problem's own table parks in ownS1/ownS2 (sharedS1/sharedS2 set) so
	// pooled reuse can restore it — the shared table is read-only and must
	// never be Reset.
	ownS1, ownS2       *nussinov.Table
	sharedS1, sharedS2 bool
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

// NewProblem builds the scoring and S tables for a sequence pair. Both
// sequences must be non-empty; the public API layer handles empty inputs by
// degenerating to single-strand folding.
func NewProblem(seq1, seq2 rna.Sequence, p score.Params) (*Problem, error) {
	prob, err := NewProblemShell(seq1, seq2, p)
	if err != nil {
		return nil, err
	}
	prob.BuildS1()
	prob.BuildS2()
	return prob, nil
}

// NewProblemShell is NewProblem without the two O(n³) Nussinov fills: the
// sequences and score tables are built, S1/S2 are left for BuildS1/BuildS2
// or for the substrate cache to install via ShareS1/ShareS2.
func NewProblemShell(seq1, seq2 rna.Sequence, p score.Params) (*Problem, error) {
	n1, n2 := seq1.Len(), seq2.Len()
	if n1 == 0 || n2 == 0 {
		return nil, fmt.Errorf("bpmax: both sequences must be non-empty (got %d and %d nt)", n1, n2)
	}
	return &Problem{
		Seq1: seq1, Seq2: seq2,
		N1: n1, N2: n2,
		Tab: score.Build(seq1, seq2, p),
	}, nil
}

// BuildS1 fills the S¹ single-strand table in the problem's own storage
// (created or Reset as needed — bit-identical to a fresh nussinov.Build) with
// the row-streamed fill.
func (p *Problem) BuildS1() { buildS(&p.S1, p.N1, p.score1) }

// BuildS2 fills the S² table; see BuildS1.
func (p *Problem) BuildS2() { buildS(&p.S2, p.N2, p.score2) }

func buildS(t **nussinov.Table, n int, sc nussinov.ScoreFunc) {
	if *t == nil {
		*t = &nussinov.Table{}
	}
	(*t).Reset(n)
	(*t).Fill(sc)
}

// ShareS1 installs a cached S¹ table. The table is shared and read-only;
// the problem's own table (if any) parks until restoreOwnTables.
func (p *Problem) ShareS1(t *nussinov.Table) {
	if !p.sharedS1 {
		p.ownS1 = p.S1
	}
	p.S1 = t
	p.sharedS1 = true
}

// ShareS2 installs a cached S² table; see ShareS1.
func (p *Problem) ShareS2(t *nussinov.Table) {
	if !p.sharedS2 {
		p.ownS2 = p.S2
	}
	p.S2 = t
	p.sharedS2 = true
}

// restoreOwnTables swaps parked own S tables back in place of shared ones,
// so pooled reuse never Resets (mutates) a table the cache handed out.
func (p *Problem) restoreOwnTables() {
	if p.sharedS1 {
		p.S1, p.ownS1, p.sharedS1 = p.ownS1, nil, false
	}
	if p.sharedS2 {
		p.S2, p.ownS2, p.sharedS2 = p.ownS2, nil, false
	}
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
