// Package rna provides RNA sequence primitives: the nucleotide alphabet,
// validated sequence values, seeded random sequence generation, and small
// composition utilities used by the BPMax workload generators.
//
// Sequences are stored as compact byte slices over the canonical RNA
// alphabet {A, C, G, U}. DNA-style input (T instead of U) and lower-case
// letters are accepted and normalized on construction.
package rna

import (
	"fmt"
	"math/rand"
	"strings"
)

// Base is a single RNA nucleotide.
type Base byte

// The four canonical RNA nucleotides.
const (
	A Base = 'A'
	C Base = 'C'
	G Base = 'G'
	U Base = 'U'
)

// Bases lists the canonical alphabet in a fixed order. The order is part of
// the package contract: generators index into it deterministically.
var Bases = [4]Base{A, C, G, U}

// index returns the 0..3 ordinal of b, or -1 if b is not canonical.
func index(b Base) int {
	switch b {
	case A:
		return 0
	case C:
		return 1
	case G:
		return 2
	case U:
		return 3
	}
	return -1
}

// Valid reports whether b is one of the four canonical nucleotides.
func (b Base) Valid() bool { return index(b) >= 0 }

// Complement returns the Watson-Crick complement (A<->U, C<->G).
// It panics if b is not canonical.
func (b Base) Complement() Base {
	switch b {
	case A:
		return U
	case U:
		return A
	case C:
		return G
	case G:
		return C
	}
	panic(fmt.Sprintf("rna: no complement for non-canonical base %q", byte(b)))
}

// normalize maps an input byte to a canonical Base, accepting lower case and
// the DNA letter T/t for U. ok is false for anything else.
func normalize(c byte) (Base, bool) {
	switch c {
	case 'A', 'a':
		return A, true
	case 'C', 'c':
		return C, true
	case 'G', 'g':
		return G, true
	case 'U', 'u', 'T', 't':
		return U, true
	}
	return 0, false
}

// Sequence is a validated RNA sequence. The zero value is the empty
// sequence, ready to use.
type Sequence struct {
	bases []Base
	name  string
}

// New parses s into a Sequence, normalizing case and T->U. It returns an
// error identifying the first invalid character.
func New(s string) (Sequence, error) {
	bases := make([]Base, 0, len(s))
	for i := 0; i < len(s); i++ {
		b, ok := normalize(s[i])
		if !ok {
			return Sequence{}, fmt.Errorf("rna: invalid nucleotide %q at position %d", s[i], i)
		}
		bases = append(bases, b)
	}
	return Sequence{bases: bases}, nil
}

// NewInto is New parsing into buf's storage (grown as needed), for callers
// that recycle sequence buffers across folds. It returns the sequence and
// the backing buffer to retain for the next call; the sequence aliases that
// buffer, so the caller must not reuse it before the sequence is dead. On
// error the original buf is returned unchanged.
func NewInto(buf []Base, s string) (Sequence, []Base, error) {
	bases := buf[:0]
	for i := 0; i < len(s); i++ {
		b, ok := normalize(s[i])
		if !ok {
			return Sequence{}, buf, fmt.Errorf("rna: invalid nucleotide %q at position %d", s[i], i)
		}
		bases = append(bases, b)
	}
	return Sequence{bases: bases}, bases, nil
}

// MustNew is like New but panics on invalid input. It is intended for
// tests and literals.
func MustNew(s string) Sequence {
	seq, err := New(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// FromBases constructs a sequence from canonical bases without copying
// validation work onto the caller; it panics on a non-canonical base.
func FromBases(bases []Base) Sequence {
	cp := make([]Base, len(bases))
	for i, b := range bases {
		if !b.Valid() {
			panic(fmt.Sprintf("rna: non-canonical base %q at position %d", byte(b), i))
		}
		cp[i] = b
	}
	return Sequence{bases: cp}
}

// WithName returns a copy of s carrying a display name (e.g. a FASTA
// header).
func (s Sequence) WithName(name string) Sequence {
	s.name = name
	return s
}

// Name returns the display name attached by WithName (possibly empty).
func (s Sequence) Name() string { return s.name }

// Len returns the number of nucleotides.
func (s Sequence) Len() int { return len(s.bases) }

// At returns the base at position i (0-based).
func (s Sequence) At(i int) Base { return s.bases[i] }

// Bases returns a copy of the underlying base slice.
func (s Sequence) Bases() []Base {
	cp := make([]Base, len(s.bases))
	copy(cp, s.bases)
	return cp
}

// String renders the sequence using the canonical upper-case alphabet.
func (s Sequence) String() string {
	var sb strings.Builder
	sb.Grow(len(s.bases))
	for _, b := range s.bases {
		sb.WriteByte(byte(b))
	}
	return sb.String()
}

// Sub returns the subsequence [i, j] inclusive on both ends, matching the
// closed-interval convention of the BPMax recurrences. An empty sequence is
// returned when j < i.
func (s Sequence) Sub(i, j int) Sequence {
	if j < i {
		return Sequence{}
	}
	if i < 0 || j >= len(s.bases) {
		panic(fmt.Sprintf("rna: Sub(%d, %d) out of range for length %d", i, j, len(s.bases)))
	}
	cp := make([]Base, j-i+1)
	copy(cp, s.bases[i:j+1])
	return Sequence{bases: cp}
}

// ReverseComplement returns the reverse complement, the strand that pairs
// with s in antiparallel orientation.
func (s Sequence) ReverseComplement() Sequence {
	cp := make([]Base, len(s.bases))
	for i, b := range s.bases {
		cp[len(cp)-1-i] = b.Complement()
	}
	return Sequence{bases: cp, name: s.name}
}

// Equal reports whether two sequences have identical bases (names are
// ignored).
func (s Sequence) Equal(t Sequence) bool {
	if len(s.bases) != len(t.bases) {
		return false
	}
	for i := range s.bases {
		if s.bases[i] != t.bases[i] {
			return false
		}
	}
	return true
}

// GCContent returns the fraction of G and C bases, or 0 for an empty
// sequence.
func (s Sequence) GCContent() float64 {
	if len(s.bases) == 0 {
		return 0
	}
	n := 0
	for _, b := range s.bases {
		if b == G || b == C {
			n++
		}
	}
	return float64(n) / float64(len(s.bases))
}

// Counts returns the number of occurrences of each canonical base in
// alphabet order (A, C, G, U).
func (s Sequence) Counts() [4]int {
	var c [4]int
	for _, b := range s.bases {
		c[index(b)]++
	}
	return c
}

// Random returns a uniformly random sequence of length n drawn from rng.
// The same rng state always yields the same sequence, which the benchmark
// harness relies on for reproducible workloads.
func Random(rng *rand.Rand, n int) Sequence {
	bases := make([]Base, n)
	for i := range bases {
		bases[i] = Bases[rng.Intn(4)]
	}
	return Sequence{bases: bases}
}

// RandomGC returns a random sequence of length n whose per-position G+C
// probability is gc (clamped to [0,1]). Within each class the two bases are
// equiprobable.
func RandomGC(rng *rand.Rand, n int, gc float64) Sequence {
	if gc < 0 {
		gc = 0
	}
	if gc > 1 {
		gc = 1
	}
	bases := make([]Base, n)
	for i := range bases {
		if rng.Float64() < gc {
			if rng.Intn(2) == 0 {
				bases[i] = G
			} else {
				bases[i] = C
			}
		} else {
			if rng.Intn(2) == 0 {
				bases[i] = A
			} else {
				bases[i] = U
			}
		}
	}
	return Sequence{bases: bases}
}

// iupac maps each IUPAC ambiguity code to the canonical bases it denotes.
var iupac = map[byte][]Base{
	'N': {A, C, G, U}, 'R': {A, G}, 'Y': {C, U}, 'S': {G, C}, 'W': {A, U},
	'K': {G, U}, 'M': {A, C}, 'B': {C, G, U}, 'D': {A, G, U},
	'H': {A, C, U}, 'V': {A, C, G},
}

// NewResolving parses s like New but additionally accepts IUPAC ambiguity
// codes (N, R, Y, S, W, K, M, B, D, H, V, upper or lower case), resolving
// each to a uniformly random compatible base drawn from rng — the standard
// pragmatic treatment of ambiguous positions in real sequence data. The
// result is deterministic for a fixed rng state.
func NewResolving(s string, rng *rand.Rand) (Sequence, error) {
	bases := make([]Base, 0, len(s))
	for i := 0; i < len(s); i++ {
		if b, ok := normalize(s[i]); ok {
			bases = append(bases, b)
			continue
		}
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		opts, ok := iupac[c]
		if !ok {
			return Sequence{}, fmt.Errorf("rna: invalid nucleotide %q at position %d", s[i], i)
		}
		bases = append(bases, opts[rng.Intn(len(opts))])
	}
	return Sequence{bases: bases}, nil
}

// Hairpin returns a sequence of length 2n+loop that folds into a perfect
// hairpin: an n-base stem, an unpaired loop, and the stem's reverse
// complement. Useful as a crafted test workload with a known optimal
// single-strand structure.
func Hairpin(rng *rand.Rand, n, loop int) Sequence {
	stem := Random(rng, n)
	loopSeq := Random(rng, loop)
	rc := stem.ReverseComplement()
	bases := make([]Base, 0, 2*n+loop)
	bases = append(bases, stem.bases...)
	bases = append(bases, loopSeq.bases...)
	bases = append(bases, rc.bases...)
	return Sequence{bases: bases}
}
