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
	"fmt"
	"math"
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
// weight symmetrically for (a,b) and (b,a), rounded to the grid (GridBits).
func Custom(name string, weights map[[2]rna.Base]Value) Model {
	m := Forbidden(name)
	for pair, w := range weights {
		m.setPair(pair[0], pair[1], w)
	}
	return m
}

// GridBits fixes the grid of every allowed weight: a model rounds each to the
// nearest multiple of 2⁻⁸, ties to even, when it is built (see Grid.Exact).
const GridBits = 8

// setPair sets the weight of a with b and of b with a to w on the grid;
// forbidden weights (NegInf and below, NaN) are kept as given.
func (m *Model) setPair(a, b rna.Base, w Value) {
	if w > NegInf/2 {
		w = Value(math.RoundToEven(math.Ldexp(float64(w), GridBits)) / (1 << GridBits))
	}
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
// representing consecutive integers exactly.
const maxIntegerWeight = 1 << 20

// IntegerBounded reports whether every allowed (non-forbidden) pair weight
// is a small non-negative integer and, if so, the largest such weight. With
// weights in [0, max], adjacent cells of a folding table differ by an integer
// step in that same range — what the Four-Russians comparator's difference
// encoding tabulates. Forbidden entries (NegInf) don't count; an
// all-forbidden model is integer-bounded with max 0.
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

// Grid is the scale of one or more models' allowed weights: each is a
// multiple of 2⁻ᴱˣᵖ, Exp ≤ GridBits the smallest such, and MaxWeight is the
// largest magnitude among them.
type Grid struct {
	MaxWeight Value
	Exp       int
}

// GridOf returns the grid of the allowed weights of ms together.
func GridOf(ms ...Model) Grid {
	var g Grid
	for _, m := range ms {
		for _, row := range m.pairs {
			for _, w := range row {
				if w <= NegInf/2 {
					continue
				}
				w = Value(math.Abs(float64(w)))
				g.MaxWeight = max(g.MaxWeight, w)
				for f := math.Ldexp(float64(w), g.Exp); f != math.Trunc(f) && g.Exp < GridBits; f *= 2 {
					g.Exp++
				}
			}
		}
	}
	return g
}

// Exact reports whether every sum a float32 max-plus fill over n bases forms
// on g is exact: a structure's ⌊n/2⌋ pairs or fewer score at most
// MaxWeight·2ᴱˣᵖ·⌊n/2⌋ units of 2⁻ᴱˣᵖ, and float32 holds every integer below
// 2²⁴. It is the exact range the fold pipeline, the solver and the S builds
// share.
func (g Grid) Exact(n int) bool {
	return math.Ldexp(float64(g.MaxWeight), g.Exp)*float64(n/2) < 1<<24
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
	// Grid is the grid of the intra- and intermolecular models together.
	Grid Grid
	// W1, W2 are the strands' weight views, what their S builds read.
	W1, W2 Weights
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
	t.Grid = GridOf(p.Model, inter)
	t.Intra1 = grow(t.Intra1, n1*n1)
	t.Intra2 = grow(t.Intra2, n2*n2)
	t.Inter = grow(t.Inter, n1*n2)
	t.W1.build(seq1, p)
	t.W2.build(seq2, p)
	for i := 0; i < n1; i++ {
		copy(t.Intra1[i*n1:i*n1+n1], t.W1.Rows(i, 0, n1))
	}
	for i := 0; i < n2; i++ {
		copy(t.Intra2[i*n2:i*n2+n2], t.W2.Rows(i, 0, n2))
	}
	for i1 := 0; i1 < n1; i1++ {
		pairRow(t.Inter[i1*n2:i1*n2+n2], &inter.pairs[t.W1.ords[i1]], t.W2.ords)
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

// Weights is one strand's intramolecular pair weights, what its S build and
// traceback read in place of an n² table: a pair's weight depends only on its
// two bases, so the table has four distinct rows, rows[b][j] the weight of
// base ordinal b with base j, masked only in the band |j-i| <= MinHairpin.
type Weights struct {
	ords    []uint8
	rows    [4][]Value
	hairpin int
	buf     []Value // the four rows, then Rows' masked copies by absolute column
}

// WeightsOf builds seq's weight view under p: four pairRow writes, O(n).
func WeightsOf(seq rna.Sequence, p Params) *Weights {
	w := &Weights{}
	w.build(seq, p)
	return w
}

// build writes seq's view under p into w, reusing its storage.
func (w *Weights) build(seq rna.Sequence, p Params) {
	n := seq.Len()
	w.ords, w.hairpin, w.buf = ordsOf(w.ords, seq), p.MinHairpin, grow(w.buf, 5*n)
	for b := range w.rows {
		w.rows[b] = w.buf[b*n : b*n+n : b*n+n]
		pairRow(w.rows[b], &p.Model.pairs[b], w.ords)
	}
}

// Len is the strand's length.
func (w *Weights) Len() int { return len(w.ords) }

// At is the weight of pairing i with j, the strand's Tables.Intra1[i*n+j].
func (w *Weights) At(i, j int) Value {
	if j-i <= w.hairpin && i-j <= w.hairpin {
		return NegInf
	}
	return w.rows[w.ords[i]&3][j]
}

// Rows is w as a fill's nussinov.PairRows, the weights of i with j in
// [lo, hi): a base row itself when the span is clear of the band, else a
// masked copy in one scratch row by absolute column, which tiles filled at
// once share as they ask for distinct columns. Callers must not modify it.
func (w *Weights) Rows(i, lo, hi int) []Value {
	row := w.rows[w.ords[i]&3][lo:hi]
	if lo > i+w.hairpin {
		return row
	}
	masked := w.buf[4*len(w.ords):]
	copy(masked[lo:hi], row)
	for j := max(lo, i-w.hairpin); j < min(hi, i+w.hairpin+1); j++ {
		masked[j] = NegInf
	}
	return masked[lo:hi]
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
