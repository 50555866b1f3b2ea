// Package semiring abstracts the algebra BPMax-family recurrences run
// over. BPMax is the (max, +) instance; the same decomposition evaluated
// over (+, ×) with Boltzmann factors gives a BPPart-flavoured partition
// signal, and over (+, ×) with unit weights it counts derivations. The
// paper motivates exactly this family: "BPMax and other RRI algorithms
// such as piRNA, IRIS, RIP follow similar recurrence patterns".
package semiring

import "math"

// NegInf is the finite "forbidden" sentinel shared by every max-plus layer
// of the repository: the tropical Zero here, package score's forbidden-pair
// weight, and the solver kernels' initialization value. It is chosen so
// that summing O(N+M) of them still stays far below any feasible score and
// far above float32 -Inf (avoiding NaNs from -Inf + -Inf cancellation in
// code that subtracts scores). score.NegInf aliases it; a drift test pins
// the two together.
const NegInf = -1e30

// Semiring is a commutative semiring over T: ⊕ (Add) with identity Zero,
// ⊗ (Mul) with identity One, ⊗ distributing over ⊕.
type Semiring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
}

// MaxPlus is the tropical semiring over float32: ⊕ = max, ⊗ = +. Its Zero
// is a large negative finite value (NegInf, shared with package score) so
// that chains of ⊗ stay finite.
type MaxPlus struct{}

// Zero returns the additive identity (NegInf).
func (MaxPlus) Zero() float32 { return NegInf }

// One returns the multiplicative identity (0).
func (MaxPlus) One() float32 { return 0 }

// Add is max.
func (MaxPlus) Add(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// Mul is +.
func (MaxPlus) Mul(a, b float32) float32 { return a + b }

// Counting is the (+, ×) semiring over float64 used to count weighted
// derivations of a recurrence.
type Counting struct{}

// Zero returns 0.
func (Counting) Zero() float64 { return 0 }

// One returns 1.
func (Counting) One() float64 { return 1 }

// Add is +.
func (Counting) Add(a, b float64) float64 { return a + b }

// Mul is ×.
func (Counting) Mul(a, b float64) float64 { return a * b }

// LogSumExp is the (log-⊕, +) semiring over float64: Add(a,b) =
// log(eᵃ + eᵇ), Mul = +. Evaluating a max-plus recurrence in LogSumExp
// with Boltzmann-scaled weights (w/kT) yields the log of a partition-like
// ensemble sum; as kT → 0 it converges to the max-plus score — the
// mathematical relationship behind the paper's observation that BPMax
// "captures a significant portion of the thermodynamic information".
type LogSumExp struct{}

// Zero returns -Inf (log of 0).
func (LogSumExp) Zero() float64 { return math.Inf(-1) }

// One returns 0 (log of 1).
func (LogSumExp) One() float64 { return 0 }

// Add is the numerically stable log(eᵃ + eᵇ).
func (LogSumExp) Add(a, b float64) float64 { return lse(a, b) }

// Mul is +.
func (LogSumExp) Mul(a, b float64) float64 { return a + b }

// Optimum is the Viterbi-with-multiplicity value: the best max-plus score
// and the number of distinct structures achieving it.
type Optimum struct {
	Score float32
	Count float64
}

// MaxPlusCount is the composite semiring computing co-optimal structure
// counts: ⊕ keeps the better score (summing counts on ties), ⊗ adds
// scores and multiplies counts. Folding over it answers "how many optimal
// structures are there?" — a standard ambiguity diagnostic the unambiguous
// decomposition below makes exact.
type MaxPlusCount struct{}

// Zero returns the impossible outcome (score NegInf, count 0).
func (MaxPlusCount) Zero() Optimum { return Optimum{Score: NegInf, Count: 0} }

// One returns the empty structure (score 0, count 1).
func (MaxPlusCount) One() Optimum { return Optimum{Score: 0, Count: 1} }

// Add keeps the better-scoring outcome, summing counts on exact ties.
func (MaxPlusCount) Add(a, b Optimum) Optimum {
	switch {
	case a.Score > b.Score:
		return a
	case b.Score > a.Score:
		return b
	default:
		return Optimum{Score: a.Score, Count: a.Count + b.Count}
	}
}

// Mul combines independent sub-structures.
func (MaxPlusCount) Mul(a, b Optimum) Optimum {
	if a.Count == 0 || b.Count == 0 {
		return Optimum{Score: NegInf, Count: 0}
	}
	return Optimum{Score: a.Score + b.Score, Count: a.Count * b.Count}
}

// FoldTable is the generic single-strand folding table over a semiring:
// the Nussinov decomposition
//
//	S[i,j] = S[i,j-1]  ⊕  ⊕_{k=i..j-1} S[i,k-1] ⊗ pair(k,j) ⊗ S[k+1,j-1]
//
// (the *unambiguous* "rightmost base j pairs with k or nothing" form, so
// that counting semirings count each structure exactly once).
type FoldTable[T any] struct {
	N    int
	data []T
}

// Fold fills the table for n positions with pair weights from pair (in the
// semiring's ⊗ scale: a max-plus weight for MaxPlus, a Boltzmann factor
// already exponentiated for Counting, w/kT for LogSumExp). A pairing is
// forbidden by returning the semiring Zero.
func Fold[T any, S Semiring[T]](sr S, n int, pair func(i, j int) T) *FoldTable[T] {
	t := &FoldTable[T]{N: n, data: make([]T, n*n)}
	for i := range t.data {
		t.data[i] = sr.One() // empty/degenerate intervals contribute One
	}
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			j := i + d
			// j unpaired.
			acc := t.At(i, j-1)
			// j paired with k.
			for k := i; k < j; k++ {
				left := t.At(i, k-1)
				inner := t.At(k+1, j-1)
				acc = sr.Add(acc, sr.Mul(sr.Mul(left, pair(k, j)), inner))
			}
			t.set(i, j, acc)
		}
	}
	return t
}

// At returns S[i,j]; empty intervals (j < i) return the table's stored One
// sentinel semantics via clamping.
func (t *FoldTable[T]) At(i, j int) T {
	if j < i {
		// One was pre-stored on the diagonal; reuse cell (0,0)-style
		// identity. Empty interval ≡ One: every cell was initialized to
		// One, and (j, j) cells are never overwritten, so borrow (0, 0)
		// when the table is non-empty.
		if t.N == 0 {
			var zero T
			return zero
		}
		return t.data[0] // still One: cell (0,0) is never overwritten
	}
	return t.data[i*t.N+j]
}

func (t *FoldTable[T]) set(i, j int, v T) { t.data[i*t.N+j] = v }
