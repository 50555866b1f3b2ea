package poly

import (
	"strings"
	"testing"
)

func TestSetString(t *testing.T) {
	s := triangle(3).With(EQ(Var(NewSpace("i", "j"), "i")))
	str := s.String()
	for _, want := range []string{"[i, j]", ">= 0", "== 0", "and"} {
		if !strings.Contains(str, want) {
			t.Errorf("Set.String() = %q missing %q", str, want)
		}
	}
}

func TestMapString(t *testing.T) {
	in := NewSpace("i", "j")
	m := NewMap(in, NewSpace("t"), []Expr{NewExpr(in, map[string]int64{"i": 1, "j": -2}, 3)})
	if got := m.String(); !strings.Contains(got, "i - 2j + 3") {
		t.Errorf("Map.String() = %q", got)
	}
}

func TestNewMapPanics(t *testing.T) {
	in := NewSpace("i")
	out := NewSpace("t", "u")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong expr count did not panic")
			}
		}()
		NewMap(in, out, []Expr{Var(in, "i")})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong arity did not panic")
			}
		}()
		NewMap(in, NewSpace("t"), []Expr{Konst(NewSpace("a", "b"), 0)})
	}()
}

func TestApplyPanicsArity(t *testing.T) {
	m := Identity(NewSpace("i"))
	defer func() {
		if recover() == nil {
			t.Error("Apply arity did not panic")
		}
	}()
	m.Apply([]int64{1, 2})
}

func TestComposePanicsMismatch(t *testing.T) {
	a := Identity(NewSpace("i"))
	b := Identity(NewSpace("j"))
	defer func() {
		if recover() == nil {
			t.Error("Compose mismatch did not panic")
		}
	}()
	a.Compose(b)
}

func TestNewSetPanicsArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSet arity did not panic")
		}
	}()
	NewSet(NewSpace("i"), GE(Konst(NewSpace("a", "b"), 0)))
}

func TestContainsPanicsArity(t *testing.T) {
	s := triangle(3)
	defer func() {
		if recover() == nil {
			t.Error("Contains arity did not panic")
		}
	}()
	s.Contains([]int64{1})
}

func TestNewDependencePanics(t *testing.T) {
	sp := NewSpace("i")
	other := NewSpace("j")
	dom := NewSet(sp)
	defer func() {
		if recover() == nil {
			t.Error("dependence arity did not panic")
		}
	}()
	NewDependence("x", dom, "A", Identity(other), "A", Identity(sp))
}

func TestTimeDimEmptySchedule(t *testing.T) {
	if got := NewSchedule("empty", nil).TimeDim(); got != 0 {
		t.Errorf("empty TimeDim = %d", got)
	}
}

func TestParallelValidPanicsLevel(t *testing.T) {
	deps := prefixSumDeps()
	iter := NewSpace("n", "i")
	s := NewSchedule("fwd", map[string]Map{
		"sum": NewMap(iter, NewSpace("t"), []Expr{Var(iter, "i")}),
	})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range parallel level did not panic")
		}
	}()
	s.ParallelValid(deps, 5)
}

func TestCeilFloorDiv(t *testing.T) {
	cases := []struct{ a, b, floor int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2},
		{7, -2, -4}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
	}
}

func TestIsEmptyWithScaledEqualities(t *testing.T) {
	sp := NewSpace("x", "y")
	x, y := Var(sp, "x"), Var(sp, "y")
	// 2x == 3 has a rational solution but no integer one: IsEmpty (a
	// rational check) must answer false, and the integer witness search
	// must come up empty — the exact division of labor Schedule.Check
	// relies on.
	s := NewSet(sp, EQ(x.Scale(2).AddK(-3)))
	if s.IsEmpty() {
		t.Error("2x=3 is rationally satisfiable; IsEmpty must be false")
	}
	if pt := s.AnyPoint([]int64{-10, -10}, []int64{10, 10}); pt != nil {
		t.Errorf("2x=3 has integer point %v?!", pt)
	}
	// 2x == 4 and x == 2 consistent; plus a y bound.
	s2 := NewSet(sp, EQ(x.Scale(2).AddK(-4)), EQ(x.AddK(-2)), GE(y))
	if s2.IsEmpty() {
		t.Error("consistent system reported empty")
	}
	// Equality substitution path: x == y + 1 and x < y is empty.
	s3 := NewSet(sp, EQ(x.Sub(y).AddK(-1)), LT(x, y))
	if !s3.IsEmpty() {
		t.Error("x=y+1 ∧ x<y not detected empty")
	}
}

func TestProjectUnknownDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Project unknown dim did not panic")
		}
	}()
	triangle(3).Project("zzz")
}

func TestEnumerateArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Enumerate arity did not panic")
		}
	}()
	triangle(3).Enumerate([]int64{0}, []int64{1, 2}, func([]int64) bool { return true })
}

func TestVarUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown Var did not panic")
		}
	}()
	Var(NewSpace("i"), "q")
}
