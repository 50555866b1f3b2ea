// Package poly is a small, exact polyhedral library: affine expressions and
// maps over named integer dimensions, polyhedral sets, Fourier–Motzkin
// elimination, and multidimensional affine-schedule legality checking.
//
// It is the analysis core of this repository's AlphaZ substitute. The paper
// generates its optimized BPMax code with AlphaZ, whose central guarantees
// are (a) every user-supplied space-time map is checked/checkable against
// the program's dependences and (b) transformed programs remain
// semantically equal. Package poly provides (a): the dependences of the
// BPMax equations are written down once (package alpha), and every schedule
// from the paper's Tables I–V is *proved* legal by showing the rational
// emptiness of its lexicographic violation sets. Package codegen provides
// (b) by executing generated loop nests against the specification.
//
// Everything is exact integer arithmetic (with gcd normalization to keep
// Fourier–Motzkin coefficients small); parameters such as the sequence
// lengths N and M are ordinary dimensions, so legality proofs hold for all
// problem sizes, not just tested ones.
package poly

import (
	"fmt"
	"strings"
)

// Space is an ordered list of named integer dimensions. Parameters (e.g.
// the sequence lengths) are ordinary dimensions by convention listed first.
type Space struct {
	names []string
	index map[string]int
}

// NewSpace builds a space from dimension names; names must be unique.
func NewSpace(names ...string) Space {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			panic(fmt.Sprintf("poly: duplicate dimension %q", n))
		}
		idx[n] = i
	}
	cp := make([]string, len(names))
	copy(cp, names)
	return Space{names: cp, index: idx}
}

// Dim returns the number of dimensions.
func (s Space) Dim() int { return len(s.names) }

// Names returns the dimension names in order.
func (s Space) Names() []string {
	cp := make([]string, len(s.names))
	copy(cp, s.names)
	return cp
}

// Pos returns the position of dimension name, or -1.
func (s Space) Pos(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Equal reports whether two spaces have the same dimensions in the same
// order.
func (s Space) Equal(t Space) bool {
	if len(s.names) != len(t.names) {
		return false
	}
	for i := range s.names {
		if s.names[i] != t.names[i] {
			return false
		}
	}
	return true
}

// String renders the space as "[a, b, c]".
func (s Space) String() string { return "[" + strings.Join(s.names, ", ") + "]" }

// Expr is an affine expression sum(Coeffs[i]*dim_i) + K over a space.
type Expr struct {
	Coeffs []int64
	K      int64
}

// NewExpr builds an expression over sp from a name->coefficient map and a
// constant. Unknown names panic (they are always programming errors here).
func NewExpr(sp Space, coeffs map[string]int64, k int64) Expr {
	e := Expr{Coeffs: make([]int64, sp.Dim()), K: k}
	for name, c := range coeffs {
		i := sp.Pos(name)
		if i < 0 {
			panic(fmt.Sprintf("poly: unknown dimension %q in space %s", name, sp))
		}
		e.Coeffs[i] = c
	}
	return e
}

// Konst builds the constant expression k over sp.
func Konst(sp Space, k int64) Expr { return Expr{Coeffs: make([]int64, sp.Dim()), K: k} }

// Var builds the expression reading a single dimension.
func Var(sp Space, name string) Expr { return NewExpr(sp, map[string]int64{name: 1}, 0) }

// Eval evaluates the expression at an integer point (len == space dim).
func (e Expr) Eval(pt []int64) int64 {
	v := e.K
	for i, c := range e.Coeffs {
		v += c * pt[i]
	}
	return v
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	g := e.clone()
	for i := range g.Coeffs {
		g.Coeffs[i] += f.Coeffs[i]
	}
	g.K += f.K
	return g
}

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr {
	g := e.clone()
	for i := range g.Coeffs {
		g.Coeffs[i] -= f.Coeffs[i]
	}
	g.K -= f.K
	return g
}

// Neg returns -e.
func (e Expr) Neg() Expr {
	g := e.clone()
	for i := range g.Coeffs {
		g.Coeffs[i] = -g.Coeffs[i]
	}
	g.K = -g.K
	return g
}

// Scale returns c*e.
func (e Expr) Scale(c int64) Expr {
	g := e.clone()
	for i := range g.Coeffs {
		g.Coeffs[i] *= c
	}
	g.K *= c
	return g
}

// AddK returns e + k.
func (e Expr) AddK(k int64) Expr {
	g := e.clone()
	g.K += k
	return g
}

func (e Expr) clone() Expr {
	g := Expr{Coeffs: make([]int64, len(e.Coeffs)), K: e.K}
	copy(g.Coeffs, e.Coeffs)
	return g
}

// String renders the expression over the given space.
func (e Expr) Format(sp Space) string {
	var sb strings.Builder
	first := true
	for i, c := range e.Coeffs {
		if c == 0 {
			continue
		}
		switch {
		case first && c == 1:
			sb.WriteString(sp.names[i])
		case first && c == -1:
			sb.WriteString("-" + sp.names[i])
		case first:
			fmt.Fprintf(&sb, "%d%s", c, sp.names[i])
		case c == 1:
			sb.WriteString(" + " + sp.names[i])
		case c == -1:
			sb.WriteString(" - " + sp.names[i])
		case c > 0:
			fmt.Fprintf(&sb, " + %d%s", c, sp.names[i])
		default:
			fmt.Fprintf(&sb, " - %d%s", -c, sp.names[i])
		}
		first = false
	}
	if first {
		return fmt.Sprintf("%d", e.K)
	}
	if e.K > 0 {
		fmt.Fprintf(&sb, " + %d", e.K)
	} else if e.K < 0 {
		fmt.Fprintf(&sb, " - %d", -e.K)
	}
	return sb.String()
}

// gcd returns the non-negative greatest common divisor.
func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
