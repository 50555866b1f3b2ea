package poly

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceBasics(t *testing.T) {
	sp := NewSpace("N", "i", "j")
	if sp.Dim() != 3 {
		t.Fatalf("Dim = %d", sp.Dim())
	}
	if sp.Pos("i") != 1 || sp.Pos("z") != -1 {
		t.Error("Pos wrong")
	}
	if !sp.Equal(NewSpace("N", "i", "j")) || sp.Equal(NewSpace("i", "N", "j")) {
		t.Error("Equal wrong")
	}
	if sp.String() != "[N, i, j]" {
		t.Errorf("String = %q", sp.String())
	}
}

func TestSpaceDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate dim did not panic")
		}
	}()
	NewSpace("i", "i")
}

func TestExprEvalAndArith(t *testing.T) {
	sp := NewSpace("i", "j")
	e := NewExpr(sp, map[string]int64{"i": 2, "j": -1}, 3) // 2i - j + 3
	if got := e.Eval([]int64{5, 4}); got != 9 {
		t.Errorf("Eval = %d", got)
	}
	f := Var(sp, "j") // j
	if got := e.Add(f).Eval([]int64{5, 4}); got != 13 {
		t.Errorf("Add = %d", got)
	}
	if got := e.Sub(f).Eval([]int64{5, 4}); got != 5 {
		t.Errorf("Sub = %d", got)
	}
	if got := e.Neg().Eval([]int64{5, 4}); got != -9 {
		t.Errorf("Neg = %d", got)
	}
	if got := e.Scale(3).Eval([]int64{5, 4}); got != 27 {
		t.Errorf("Scale = %d", got)
	}
	if got := e.AddK(-2).Eval([]int64{5, 4}); got != 7 {
		t.Errorf("AddK = %d", got)
	}
}

func TestExprFormat(t *testing.T) {
	sp := NewSpace("i", "j")
	cases := []struct {
		e    Expr
		want string
	}{
		{NewExpr(sp, map[string]int64{"i": 1, "j": -1}, 0), "i - j"},
		{NewExpr(sp, map[string]int64{"i": -1}, 2), "-i + 2"},
		{NewExpr(sp, map[string]int64{"i": 2, "j": 3}, -1), "2i + 3j - 1"},
		{Konst(sp, 5), "5"},
		{Konst(sp, 0), "0"},
	}
	for _, c := range cases {
		if got := c.e.Format(sp); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

// triangle returns { (i,j) : 0 <= i <= j < n } with n a fixed constant.
func triangle(n int64) Set {
	sp := NewSpace("i", "j")
	i, j := Var(sp, "i"), Var(sp, "j")
	return NewSet(sp,
		GE(i),
		LE(i, j),
		LT(j, Konst(sp, n)),
	)
}

func TestSetContains(t *testing.T) {
	s := triangle(4)
	if !s.Contains([]int64{0, 3}) || !s.Contains([]int64{2, 2}) {
		t.Error("Contains false negative")
	}
	if s.Contains([]int64{3, 2}) || s.Contains([]int64{0, 4}) || s.Contains([]int64{-1, 0}) {
		t.Error("Contains false positive")
	}
}

func TestSetEnumerateCount(t *testing.T) {
	s := triangle(5)
	count := 0
	s.Enumerate([]int64{0, 0}, []int64{4, 4}, func(pt []int64) bool {
		count++
		return true
	})
	if count != 15 { // 5*6/2
		t.Errorf("enumerated %d points, want 15", count)
	}
}

func TestSetEnumerateEarlyStop(t *testing.T) {
	s := triangle(5)
	count := 0
	complete := s.Enumerate([]int64{0, 0}, []int64{4, 4}, func(pt []int64) bool {
		count++
		return count < 3
	})
	if complete || count != 3 {
		t.Errorf("early stop: complete=%v count=%d", complete, count)
	}
}

func TestIsEmptyBasic(t *testing.T) {
	sp := NewSpace("x")
	x := Var(sp, "x")
	if NewSet(sp, GE(x), LE(x, Konst(sp, 5))).IsEmpty() {
		t.Error("0<=x<=5 reported empty")
	}
	if !NewSet(sp, GE(x), LT(x, Konst(sp, 0))).IsEmpty() {
		t.Error("0<=x<0 reported non-empty")
	}
	if !NewSet(sp, EQ(x.AddK(-3)), EQ(x.AddK(-4))).IsEmpty() {
		t.Error("x=3 and x=4 reported non-empty")
	}
	if NewSet(sp).IsEmpty() {
		t.Error("unconstrained set reported empty")
	}
}

func TestIsEmptyParametric(t *testing.T) {
	// { (n, i) : 0 <= i < n and i >= n } is empty for all n.
	sp := NewSpace("n", "i")
	n, i := Var(sp, "n"), Var(sp, "i")
	s := NewSet(sp, GE(i), LT(i, n), GE(i.Sub(n)))
	if !s.IsEmpty() {
		t.Error("parametric contradiction not detected")
	}
	// { (n, i) : 0 <= i < n } is non-empty (pick n=1, i=0).
	if NewSet(sp, GE(i), LT(i, n)).IsEmpty() {
		t.Error("parametric triangle reported empty")
	}
}

func TestIsEmptyMatchesEnumeration(t *testing.T) {
	// Random small systems over a 3-D box: FM emptiness must agree with
	// brute force (FM may claim non-empty for integer-empty rational sets,
	// so only the "FM empty -> no integer points" direction is hard; check
	// both and allow the known-safe direction).
	rng := rand.New(rand.NewSource(42))
	sp := NewSpace("x", "y", "z")
	for trial := 0; trial < 200; trial++ {
		var cons []Constraint
		ncons := 1 + rng.Intn(5)
		for c := 0; c < ncons; c++ {
			e := Expr{Coeffs: []int64{
				int64(rng.Intn(5) - 2),
				int64(rng.Intn(5) - 2),
				int64(rng.Intn(5) - 2),
			}, K: int64(rng.Intn(11) - 5)}
			cons = append(cons, GE(e))
		}
		s := NewSet(sp, cons...)
		hasPoint := s.AnyPoint([]int64{-6, -6, -6}, []int64{6, 6, 6}) != nil
		if s.IsEmpty() && hasPoint {
			t.Fatalf("trial %d: IsEmpty but box contains a point: %s", trial, s)
		}
	}
}

func TestProject(t *testing.T) {
	// Project { (i,j) : 0 <= i <= j < 4 } onto i: 0 <= i <= 3.
	s := triangle(4)
	p := s.Project("j")
	if p.Space.Dim() != 1 {
		t.Fatalf("projected space %s", p.Space)
	}
	for i := int64(-2); i <= 5; i++ {
		want := i >= 0 && i <= 3
		if got := p.Contains([]int64{i}); got != want {
			t.Errorf("projection at i=%d: %v, want %v", i, got, want)
		}
	}
}

func TestMapApplyCompose(t *testing.T) {
	in := NewSpace("i", "j")
	mid := NewSpace("a", "b")
	out := NewSpace("t")
	// g(i,j) = (i+j, i-j); m(a,b) = (2a + b + 1).
	g := NewMap(in, mid, []Expr{
		NewExpr(in, map[string]int64{"i": 1, "j": 1}, 0),
		NewExpr(in, map[string]int64{"i": 1, "j": -1}, 0),
	})
	m := NewMap(mid, out, []Expr{NewExpr(mid, map[string]int64{"a": 2, "b": 1}, 1)})
	if got := g.Apply([]int64{3, 1}); got[0] != 4 || got[1] != 2 {
		t.Errorf("g(3,1) = %v", got)
	}
	comp := m.Compose(g)
	// m(g(3,1)) = 2*4 + 2 + 1 = 11.
	if got := comp.Apply([]int64{3, 1}); got[0] != 11 {
		t.Errorf("compose = %v", got)
	}
}

func TestComposeMatchesSequentialApply(t *testing.T) {
	f := func(i, j int8) bool {
		in := NewSpace("i", "j")
		mid := NewSpace("a", "b", "c")
		out := NewSpace("t", "u")
		g := NewMap(in, mid, []Expr{
			NewExpr(in, map[string]int64{"i": 2}, 1),
			NewExpr(in, map[string]int64{"j": -1}, 0),
			NewExpr(in, map[string]int64{"i": 1, "j": 1}, -3),
		})
		m := NewMap(mid, out, []Expr{
			NewExpr(mid, map[string]int64{"a": 1, "c": 2}, 0),
			NewExpr(mid, map[string]int64{"b": 3}, 5),
		})
		pt := []int64{int64(i), int64(j)}
		direct := m.Apply(g.Apply(pt))
		composed := m.Compose(g).Apply(pt)
		return direct[0] == composed[0] && direct[1] == composed[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentity(t *testing.T) {
	sp := NewSpace("i", "j")
	id := Identity(sp)
	if got := id.Apply([]int64{7, -2}); got[0] != 7 || got[1] != -2 {
		t.Errorf("Identity = %v", got)
	}
}

// prefixSumDeps models sum[i] reading sum[i-1] (a 1-D recurrence over
// { (n,i) : 1 <= i < n }).
func prefixSumDeps() []Dependence {
	sp := NewSpace("n", "i")
	n, i := Var(sp, "n"), Var(sp, "i")
	dom := NewSet(sp, GE(i.AddK(-1)), LT(i, n))
	iter := NewSpace("n", "i")
	cons := Identity(iter)
	prod := NewMap(sp, iter, []Expr{Var(sp, "n"), i.AddK(-1)})
	return []Dependence{NewDependence("carry", dom, "sum", cons, "sum", prod)}
}

func TestScheduleLegalitySimple(t *testing.T) {
	deps := prefixSumDeps()
	iter := NewSpace("n", "i")
	// Forward schedule t = i: legal.
	fwd := NewSchedule("fwd", map[string]Map{
		"sum": NewMap(iter, NewSpace("t"), []Expr{Var(iter, "i")}),
	})
	if !fwd.Legal(deps) {
		t.Error("forward schedule reported illegal")
	}
	// Reverse schedule t = -i: illegal.
	rev := NewSchedule("rev", map[string]Map{
		"sum": NewMap(iter, NewSpace("t"), []Expr{Var(iter, "i").Neg()}),
	})
	if rev.Legal(deps) {
		t.Error("reverse schedule reported legal")
	}
	// Constant schedule (everything at t=0): illegal (exact tie).
	tie := NewSchedule("tie", map[string]Map{
		"sum": NewMap(iter, NewSpace("t"), []Expr{Konst(iter, 0)}),
	})
	if tie.Legal(deps) {
		t.Error("tie schedule reported legal")
	}
}

func TestScheduleWitnessSearch(t *testing.T) {
	deps := prefixSumDeps()
	iter := NewSpace("n", "i")
	rev := NewSchedule("rev", map[string]Map{
		"sum": NewMap(iter, NewSpace("t"), []Expr{Var(iter, "i").Neg()}),
	})
	viols := rev.Check(deps, 6)
	if len(viols) == 0 {
		t.Fatal("no violations found for reverse schedule")
	}
	v := viols[0]
	if v.Point == nil {
		t.Fatal("no witness point found")
	}
	if !deps[0].Domain.Contains(v.Point) {
		t.Error("witness not in dependence domain")
	}
}

func TestMultiDimScheduleLegality(t *testing.T) {
	// 2-D dependence: X[i,j] reads X[i-1, j+1] over a square. The schedule
	// (i, j) is legal (level-0 strict); the schedule (j, i) is illegal
	// (level 0 decreases).
	sp := NewSpace("n", "i", "j")
	n, i, j := Var(sp, "n"), Var(sp, "i"), Var(sp, "j")
	dom := NewSet(sp, GE(i.AddK(-1)), LT(i, n), GE(j), LT(j.AddK(1), n))
	iter := NewSpace("n", "i", "j")
	cons := Identity(iter)
	prod := NewMap(sp, iter, []Expr{n, i.AddK(-1), j.AddK(1)})
	deps := []Dependence{NewDependence("diag", dom, "X", cons, "X", prod)}

	t2 := NewSpace("t0", "t1")
	good := NewSchedule("ij", map[string]Map{
		"X": NewMap(iter, t2, []Expr{Var(iter, "i"), Var(iter, "j")}),
	})
	if !good.Legal(deps) {
		t.Error("(i,j) schedule reported illegal")
	}
	bad := NewSchedule("ji", map[string]Map{
		"X": NewMap(iter, t2, []Expr{Var(iter, "j"), Var(iter, "i")}),
	})
	if bad.Legal(deps) {
		t.Error("(j,i) schedule reported legal")
	}
	// The skewed schedule (i+j, j): level 0 ties (i-1)+(j+1) == i+j, and
	// level 1 has j+1 > j — the *producer* is later: illegal.
	skew := NewSchedule("skew", map[string]Map{
		"X": NewMap(iter, t2, []Expr{
			NewExpr(iter, map[string]int64{"i": 1, "j": 1}, 0),
			Var(iter, "j"),
		}),
	})
	if skew.Legal(deps) {
		t.Error("(i+j, j) schedule reported legal")
	}
	// The skewed schedule (i+j... ) with second level i is legal:
	// ties at level 0, then i > i-1.
	skew2 := NewSchedule("skew2", map[string]Map{
		"X": NewMap(iter, t2, []Expr{
			NewExpr(iter, map[string]int64{"i": 1, "j": 1}, 0),
			Var(iter, "i"),
		}),
	})
	if !skew2.Legal(deps) {
		t.Error("(i+j, i) schedule reported illegal")
	}
}

func TestScheduleDimMismatchPanics(t *testing.T) {
	iter := NewSpace("i")
	defer func() {
		if recover() == nil {
			t.Error("mismatched time dims did not panic")
		}
	}()
	NewSchedule("bad", map[string]Map{
		"A": NewMap(iter, NewSpace("t"), []Expr{Var(iter, "i")}),
		"B": NewMap(iter, NewSpace("t0", "t1"), []Expr{Var(iter, "i"), Var(iter, "i")}),
	})
}

func TestLegalityEnumerationCrossCheck(t *testing.T) {
	// For a batch of random 1-D schedules over the prefix-sum dependence,
	// FM legality must agree with brute-force ordering checks on a box.
	deps := prefixSumDeps()
	iter := NewSpace("n", "i")
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		ci := int64(rng.Intn(5) - 2)
		cn := int64(rng.Intn(3) - 1)
		sched := NewSchedule("rand", map[string]Map{
			"sum": NewMap(iter, NewSpace("t"), []Expr{
				NewExpr(iter, map[string]int64{"i": ci, "n": cn}, 0),
			}),
		})
		legal := sched.Legal(deps)
		// Brute force over n <= 8.
		bruteLegal := true
		deps[0].Domain.Enumerate([]int64{0, 0}, []int64{8, 8}, func(pt []int64) bool {
			c := sched.Maps["sum"].Apply(deps[0].Cons.Apply(pt))
			p := sched.Maps["sum"].Apply(deps[0].Prod.Apply(pt))
			if c[0] <= p[0] {
				bruteLegal = false
				return false
			}
			return true
		})
		// FM legality is sound and, on these unit-coefficient systems,
		// exact; both directions must agree.
		if legal != bruteLegal {
			t.Errorf("trial %d (ci=%d cn=%d): FM legal=%v brute=%v", trial, ci, cn, legal, bruteLegal)
		}
	}
}
