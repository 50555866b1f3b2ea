package poly

// Fourier–Motzkin elimination over the rationals. Eliminating every
// dimension of a set leaves purely constant constraints whose consistency
// decides rational emptiness. Rational emptiness implies integer emptiness,
// which is the direction schedule-legality proofs need: an empty violation
// set means no dependence instance is mis-ordered, for any parameter value.

// rawCons is a constraint with the space implied by position.
type rawCons struct {
	coeffs []int64
	k      int64
	eq     bool
}

func toRaw(c Constraint) rawCons {
	cc := c.normalize()
	raw := rawCons{coeffs: make([]int64, len(cc.Expr.Coeffs)), k: cc.Expr.K, eq: cc.Eq}
	copy(raw.coeffs, cc.Expr.Coeffs)
	return raw
}

func (r rawCons) key() string {
	b := make([]byte, 0, 8*len(r.coeffs)+9)
	for _, c := range r.coeffs {
		b = appendI64(b, c)
	}
	b = appendI64(b, r.k)
	if r.eq {
		b = append(b, 1)
	}
	return string(b)
}

func appendI64(b []byte, v int64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func (r rawCons) normalize() rawCons {
	g := int64(0)
	for _, c := range r.coeffs {
		g = gcd(g, c)
	}
	if g == 0 {
		return r
	}
	if r.eq {
		g = gcd(g, r.k)
	}
	if g <= 1 {
		if !r.eq && g == 1 {
			return r
		}
		if r.eq {
			return r
		}
	}
	out := rawCons{coeffs: make([]int64, len(r.coeffs)), eq: r.eq}
	copy(out.coeffs, r.coeffs)
	for i := range out.coeffs {
		out.coeffs[i] /= g
	}
	if r.eq {
		out.k = r.k / g
	} else {
		out.k = floorDiv(r.k, g)
	}
	return out
}

// eliminate removes dimension d from the system by Fourier–Motzkin
// (equalities are substituted exactly when possible).
func eliminate(cons []rawCons, d int) []rawCons {
	// Prefer substitution through an equality with a ±1 coefficient on d —
	// exact and growth-free.
	for i, c := range cons {
		if c.eq && (c.coeffs[d] == 1 || c.coeffs[d] == -1) {
			out := make([]rawCons, 0, len(cons)-1)
			for j, o := range cons {
				if j == i {
					continue
				}
				out = append(out, substitute(o, c, d))
			}
			return out
		}
	}
	// Split equalities touching d into two inequalities; then classic FM.
	var lower, upper, rest []rawCons
	for _, c := range cons {
		if c.eq {
			if c.coeffs[d] != 0 {
				pos := rawCons{coeffs: append([]int64(nil), c.coeffs...), k: c.k}
				neg := rawCons{coeffs: make([]int64, len(c.coeffs)), k: -c.k}
				for i, v := range c.coeffs {
					neg.coeffs[i] = -v
				}
				for _, cc := range []rawCons{pos, neg} {
					if cc.coeffs[d] > 0 {
						lower = append(lower, cc)
					} else {
						upper = append(upper, cc)
					}
				}
			} else {
				rest = append(rest, c)
			}
			continue
		}
		switch {
		case c.coeffs[d] > 0:
			lower = append(lower, c) // gives a lower bound on d
		case c.coeffs[d] < 0:
			upper = append(upper, c) // gives an upper bound on d
		default:
			rest = append(rest, c)
		}
	}
	out := rest
	for _, l := range lower {
		for _, u := range upper {
			// l: a*d + L >= 0 (a>0); u: -b*d + U >= 0 (b>0)
			// combine: b*L + a*U >= 0.
			a := l.coeffs[d]
			b := -u.coeffs[d]
			nc := rawCons{coeffs: make([]int64, len(l.coeffs))}
			for i := range nc.coeffs {
				nc.coeffs[i] = b*l.coeffs[i] + a*u.coeffs[i]
			}
			nc.k = b*l.k + a*u.k
			nc.coeffs[d] = 0
			out = append(out, nc.normalize())
		}
	}
	return dedupe(out)
}

// substitute eliminates dim d from o using the equality eq (coefficient on
// d is ±1): d = ∓(rest of eq).
func substitute(o, eq rawCons, d int) rawCons {
	cd := o.coeffs[d]
	if cd == 0 {
		return o
	}
	// eq: s*d + R = 0 with s = ±1 -> d = -s*R.
	s := eq.coeffs[d] // ±1
	out := rawCons{coeffs: make([]int64, len(o.coeffs)), k: o.k, eq: o.eq}
	copy(out.coeffs, o.coeffs)
	out.coeffs[d] = 0
	// o = cd*d + rest; d = -s*(eq - s*d)  => subtract cd*s*eq from o.
	f := cd * s
	for i := range out.coeffs {
		if i == d {
			continue
		}
		out.coeffs[i] -= f * eq.coeffs[i]
	}
	out.k -= f * eq.k
	return out.normalize()
}

func dedupe(cons []rawCons) []rawCons {
	seen := make(map[string]bool, len(cons))
	out := cons[:0]
	for _, c := range cons {
		// Drop trivially true inequalities (0 >= k with k <= 0 ... i.e.
		// all-zero coeffs and k >= 0) early; keep contradictions.
		if !c.eq && allZero(c.coeffs) && c.k >= 0 {
			continue
		}
		if c.eq && allZero(c.coeffs) && c.k == 0 {
			continue
		}
		key := c.key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

func allZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the set has no rational points (hence no integer
// points). The check is exact for rational emptiness; a false return means
// the *rational* relaxation is non-empty (callers wanting an integer
// witness can search with AnyPoint).
func (s Set) IsEmpty() bool {
	cons := make([]rawCons, 0, len(s.Cons))
	for _, c := range s.Cons {
		cons = append(cons, toRaw(c))
	}
	cons = dedupe(cons)
	for d := 0; d < s.Space.Dim(); d++ {
		cons = eliminate(cons, d)
		// Early exit on a constant contradiction.
		for _, c := range cons {
			if allZero(c.coeffs) {
				if c.eq && c.k != 0 {
					return true
				}
				if !c.eq && c.k < 0 {
					return true
				}
			}
		}
	}
	for _, c := range cons {
		if c.eq && c.k != 0 {
			return true
		}
		if !c.eq && c.k < 0 {
			return true
		}
	}
	return false
}

// Project eliminates the named dimensions, returning the set's shadow on
// the remaining space (rational projection; exact for the emptiness and
// bounding uses in this repository).
func (s Set) Project(drop ...string) Set {
	dropSet := make(map[int]bool)
	for _, name := range drop {
		i := s.Space.Pos(name)
		if i < 0 {
			panic("poly: Project of unknown dimension " + name)
		}
		dropSet[i] = true
	}
	cons := make([]rawCons, 0, len(s.Cons))
	for _, c := range s.Cons {
		cons = append(cons, toRaw(c))
	}
	for i := 0; i < s.Space.Dim(); i++ {
		if dropSet[i] {
			cons = eliminate(cons, i)
		}
	}
	// Build the reduced space and compress coefficient vectors.
	var keep []int
	var names []string
	for i, n := range s.Space.names {
		if !dropSet[i] {
			keep = append(keep, i)
			names = append(names, n)
		}
	}
	out := NewSet(NewSpace(names...))
	for _, c := range cons {
		e := Expr{Coeffs: make([]int64, len(keep)), K: c.k}
		skip := false
		for j, src := range keep {
			e.Coeffs[j] = c.coeffs[src]
		}
		// A projected constraint must not mention dropped dims.
		for i := range c.coeffs {
			if dropSet[i] && c.coeffs[i] != 0 {
				skip = true
			}
		}
		if skip {
			continue
		}
		out.Cons = append(out.Cons, Constraint{Expr: e, Eq: c.eq})
	}
	return out
}
