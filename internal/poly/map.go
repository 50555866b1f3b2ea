package poly

import (
	"fmt"
	"strings"
)

// Map is a multidimensional affine function from one space to another:
// out[i] = Exprs[i](in).
type Map struct {
	In    Space
	Out   Space
	Exprs []Expr
}

// NewMap builds a map; the number of expressions must match the output
// dimension and every expression must have the input arity.
func NewMap(in, out Space, exprs []Expr) Map {
	if len(exprs) != out.Dim() {
		panic(fmt.Sprintf("poly: map has %d exprs for output space %s", len(exprs), out))
	}
	for _, e := range exprs {
		if len(e.Coeffs) != in.Dim() {
			panic(fmt.Sprintf("poly: map expression arity %d does not match input %s", len(e.Coeffs), in))
		}
	}
	return Map{In: in, Out: out, Exprs: exprs}
}

// Identity returns the identity map on sp.
func Identity(sp Space) Map {
	exprs := make([]Expr, sp.Dim())
	for i, n := range sp.Names() {
		exprs[i] = Var(sp, n)
	}
	return NewMap(sp, sp, exprs)
}

// Apply evaluates the map at an integer point.
func (m Map) Apply(pt []int64) []int64 {
	if len(pt) != m.In.Dim() {
		panic(fmt.Sprintf("poly: Apply arity %d to map from %s", len(pt), m.In))
	}
	out := make([]int64, len(m.Exprs))
	for i, e := range m.Exprs {
		out[i] = e.Eval(pt)
	}
	return out
}

// Compose returns m ∘ g: first g, then m. g.Out must equal m.In.
func (m Map) Compose(g Map) Map {
	if !g.Out.Equal(m.In) {
		panic(fmt.Sprintf("poly: compose mismatch %s vs %s", g.Out, m.In))
	}
	exprs := make([]Expr, len(m.Exprs))
	for i, e := range m.Exprs {
		acc := Konst(g.In, e.K)
		for j, c := range e.Coeffs {
			if c != 0 {
				acc = acc.Add(g.Exprs[j].Scale(c))
			}
		}
		exprs[i] = acc
	}
	return NewMap(g.In, m.Out, exprs)
}

// String renders the map as "[in] -> [e1, e2, ...]".
func (m Map) String() string {
	parts := make([]string, len(m.Exprs))
	for i, e := range m.Exprs {
		parts[i] = e.Format(m.In)
	}
	return m.In.String() + " -> [" + strings.Join(parts, ", ") + "]"
}
