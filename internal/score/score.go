// Package score defines the weighted base-pair scoring model used by BPMax
// and the Nussinov-style single-strand tables.
//
// BPMax maximizes a weighted count of base pairs. Following the BPPart/BPMax
// base-pair counting model, canonical pairs carry ring-strength weights
// (GC strongest, then AU, then the GU wobble); all other pairings are
// forbidden (score -inf, represented here as a large negative value that
// survives float32 max-plus arithmetic without overflow).
package score

import (
	"context"
	"fmt"
	"slices"

	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// Value is the scalar score type. Single precision matches the paper's
// storage choice ("we use single-precision storage to reduce the memory
// footprint of BPMax").
type Value = float32

// NegInf is the additive identity for forbidden pairings. It is the
// repository-wide sentinel semiring.NegInf (the tropical Zero): one shared
// constant, so the scoring layer and the algebra layer can never drift
// apart (TestNegInfShared pins this).
const NegInf Value = semiring.NegInf

// Model assigns weights to base pairs. A zero-valued Model forbids
// everything; use one of the constructors.
type Model struct {
	// pairs[a][b] is the weight for pairing base ordinal a with ordinal b.
	pairs [4][4]Value
	name  string
}

// ordinals maps a base byte to its 0..3 ordinal, every non-canonical byte to
// 4: one load, no branch on the base, for the table fills' inner loops.
var ordinals = func() (o [256]uint8) {
	for b := range o {
		o[b] = 4
	}
	for i, b := range rna.Bases {
		o[b] = uint8(i)
	}
	return o
}()

// ord maps a canonical base to its 0..3 ordinal and panics on any other.
func ord(b rna.Base) int {
	if o := ordinals[b]; o < 4 {
		return int(o)
	}
	return nonCanonical(b)
}

// nonCanonical is ord's panic, kept out of line so that ord inlines into the
// table fills' loops.
//
//go:noinline
func nonCanonical(b rna.Base) int { panic(fmt.Sprintf("score: non-canonical base %q", byte(b))) }

// BasePair returns the canonical weighted base-pair counting model:
// GC/CG = 3, AU/UA = 2, GU/UG = 1, everything else forbidden.
func BasePair() Model {
	m := Forbidden("basepair")
	m.setPair(rna.G, rna.C, 3)
	m.setPair(rna.A, rna.U, 2)
	m.setPair(rna.G, rna.U, 1)
	return m
}

// Unit returns the unweighted Nussinov model: every canonical pair
// (GC, AU, GU) scores 1, so the optimum counts base pairs.
func Unit() Model {
	m := Forbidden("unit")
	m.setPair(rna.G, rna.C, 1)
	m.setPair(rna.A, rna.U, 1)
	m.setPair(rna.G, rna.U, 1)
	return m
}

// Forbidden returns a model in which every pairing is disallowed. It is the
// neutral starting point for Custom models and the natural "interaction
// disabled" model for degeneracy tests.
func Forbidden(name string) Model {
	var m Model
	m.name = name
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			m.pairs[a][b] = NegInf
		}
	}
	return m
}

// Custom builds a model from explicit pair weights. Each entry sets the
// weight symmetrically for (a,b) and (b,a).
func Custom(name string, weights map[[2]rna.Base]Value) Model {
	m := Forbidden(name)
	for pair, w := range weights {
		m.setPair(pair[0], pair[1], w)
	}
	return m
}

func (m *Model) setPair(a, b rna.Base, w Value) {
	m.pairs[ord(a)][ord(b)] = w
	m.pairs[ord(b)][ord(a)] = w
}

// Name returns the model's display name.
func (m Model) Name() string { return m.name }

// Pair returns the weight for pairing bases a and b (NegInf when
// forbidden).
func (m Model) Pair(a, b rna.Base) Value { return m.pairs[ord(a)][ord(b)] }

// Allowed reports whether the pairing of a and b carries a usable
// (non-forbidden) weight.
func (m Model) Allowed(a, b rna.Base) bool { return m.pairs[ord(a)][ord(b)] > NegInf/2 }

// maxIntegerWeight bounds the weights IntegerBounded accepts. Far above any
// realistic pair weight, far below the 2²⁴ limit where float32 stops
// representing consecutive integers exactly (the max-plus fill's one-hop R2
// closure needs exact integer arithmetic).
const maxIntegerWeight = 1 << 20

// IntegerBounded reports whether every allowed (non-forbidden) pair weight
// is a small non-negative integer and, if so, the largest such weight.
// BuildInto records it on Tables, and the max-plus fill keys on it: with
// integer weights every sum it forms is an integer, exact in float32 below
// 2²⁴, which lets finalize close R2 in one hop instead of a chain (see
// internal/bpmax, finalize). With weights in [0, max],
// adjacent cells of a folding table also differ by an integer step in that
// same range — what the Four-Russians comparator's difference encoding
// tabulates. Forbidden entries (NegInf) don't count; an all-forbidden model
// is integer-bounded with max 0.
func (m Model) IntegerBounded() (max int, ok bool) {
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			w := m.pairs[a][b]
			if w <= NegInf/2 {
				continue
			}
			if w < 0 || w > maxIntegerWeight || w != Value(int32(w)) {
				return 0, false
			}
			if int(w) > max {
				max = int(w)
			}
		}
	}
	return max, true
}

// Symmetric reports whether m.Pair(a,b) == m.Pair(b,a) for all bases; all
// models built by this package's constructors are symmetric, and callers of
// Custom may use this as a sanity check.
func (m Model) Symmetric() bool {
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if m.pairs[a][b] != m.pairs[b][a] {
				return false
			}
		}
	}
	return true
}

// Tables bundles the precomputed pair-score lookups for one BPMax problem
// instance: intramolecular scores for each strand and the intermolecular
// score matrix. Precomputing them lifts model dispatch out of the O(N³M³)
// kernels.
type Tables struct {
	N1, N2 int
	// Intra1[i*N1+j] = weight of pairing seq1[i] with seq1[j].
	Intra1 []Value
	// Intra2[i*N2+j] = weight of pairing seq2[i] with seq2[j].
	Intra2 []Value
	// Inter[i1*N2+i2] = weight of pairing seq1[i1] with seq2[i2].
	Inter []Value
	// IntegerWeights records that every allowed intra- and intermolecular
	// weight is a non-negative integer (Model.IntegerBounded of both models),
	// MaxWeight the largest of them (0 when IntegerWeights is false).
	IntegerWeights bool
	MaxWeight      int
	ord1, ord2     []uint8 // the strands' base ordinals (ordsOf), kept across reuse
}

// MinPairLoop is the minimum number of unpaired bases required between the
// two ends of an intramolecular pair (the hairpin-loop constraint). BPMax's
// simplified counting model, like Nussinov's original formulation, uses 0;
// the field exists so callers can model a sterically realistic loop.
type Params struct {
	Model Model
	// InterModel scores intermolecular pairs; if unset (zero Model name and
	// all-forbidden), Model is used for intermolecular pairs too.
	InterModel *Model
	// MinHairpin is the minimum i..j distance for an intramolecular pair:
	// pair (i,j) requires j-i > MinHairpin.
	MinHairpin int
}

// DefaultParams returns the configuration used throughout the paper's
// experiments: the weighted base-pair model for both intra- and
// intermolecular pairs and no hairpin constraint.
func DefaultParams() Params {
	return Params{Model: BasePair()}
}

// Build precomputes scoring tables for a pair of sequences under p.
func Build(seq1, seq2 rna.Sequence, p Params) *Tables {
	t := &Tables{}
	BuildInto(t, seq1, seq2, p)
	return t
}

// grow returns a slice of length n backed by dst's storage when its
// capacity allows; every cell is overwritten by the caller, so no zeroing
// is needed on reuse.
func grow(dst []Value, n int) []Value {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]Value, n)
}

// BuildInto is Build writing into t, reusing its table storage when the
// capacity allows — the fold pool's path to allocation-free steady state.
// Every cell of every table is overwritten.
func BuildInto(t *Tables, seq1, seq2 rna.Sequence, p Params) {
	n1, n2 := seq1.Len(), seq2.Len()
	inter := p.Model
	if p.InterModel != nil {
		inter = *p.InterModel
	}
	t.N1 = n1
	t.N2 = n2
	m1, ok1 := p.Model.IntegerBounded()
	m2, ok2 := inter.IntegerBounded()
	t.IntegerWeights, t.MaxWeight = ok1 && ok2, 0
	if t.IntegerWeights {
		t.MaxWeight = max(m1, m2)
	}
	t.Intra1 = grow(t.Intra1, n1*n1)
	t.Intra2 = grow(t.Intra2, n2*n2)
	t.Inter = grow(t.Inter, n1*n2)
	t.ord1, t.ord2 = ordsOf(t.ord1, seq1), ordsOf(t.ord2, seq2)
	// A background build is never cancelled: fillIntra returns nil.
	ctx := context.Background()
	_ = fillIntra(ctx, t.Intra1, t.ord1, p)
	_ = fillIntra(ctx, t.Intra2, t.ord2, p)
	for i1 := 0; i1 < n1; i1++ {
		pairRow(t.Inter[i1*n2:i1*n2+n2], &inter.pairs[t.ord1[i1]], t.ord2)
	}
}

// ordsOf writes seq's base ordinals into dst's storage, so a table reads each
// once, not once a cell. A non-canonical base panics as Model.Pair does.
func ordsOf(dst []uint8, seq rna.Sequence) []uint8 {
	dst = slices.Grow(dst[:0], seq.Len())[:seq.Len()]
	for j := range dst {
		dst[j] = uint8(ord(seq.At(j)))
	}
	return dst
}

// pairRow writes row[j] = w[ords[j]] for every j: one row of a pair table by
// lookup in w, the weight row of the row's own base, so a cell costs one
// load of a column's ordinal and one of its weight.
func pairRow(row []Value, w *[4]Value, ords []uint8) {
	for j, o := range ords[:len(row)] {
		row[j] = w[o&3]
	}
}

// IntraContext builds seq's intramolecular pair table alone (row-major
// n×n, Tables.Intra1's layout) — all a single-strand fold reads — checking
// ctx once a row.
func IntraContext(ctx context.Context, seq rna.Sequence, p Params) ([]Value, error) {
	dst := make([]Value, seq.Len()*seq.Len())
	return dst, fillIntra(ctx, dst, ordsOf(nil, seq), p)
}

// fillIntra writes seq's intramolecular pair table into dst, returning
// ctx's error at the first row it finds ctx done. Each row is one pairRow
// over the strand's ordinals, then the band |j-i| <= MinHairpin is masked to
// NegInf.
func fillIntra(ctx context.Context, dst []Value, ords []uint8, p Params) error {
	n := len(ords)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		row := dst[i*n : i*n+n]
		pairRow(row, &p.Model.pairs[ords[i]], ords)
		for j := max(i-p.MinHairpin, 0); j <= min(i+p.MinHairpin, n-1); j++ {
			row[j] = NegInf
		}
	}
	return nil
}

// Score1 returns the intramolecular weight for pairing positions i and j of
// sequence 1.
func (t *Tables) Score1(i, j int) Value { return t.Intra1[i*t.N1+j] }

// Score2 returns the intramolecular weight for pairing positions i and j of
// sequence 2.
func (t *Tables) Score2(i, j int) Value { return t.Intra2[i*t.N2+j] }

// IScore returns the intermolecular weight for pairing position i1 of
// sequence 1 with position i2 of sequence 2.
func (t *Tables) IScore(i1, i2 int) Value { return t.Inter[i1*t.N2+i2] }
