package bpmax

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// buildTestPartitionSub builds the Boltzmann substrate or fails the test.
func buildTestPartitionSub(t testing.TB, p *Problem, kT float64) *PartitionSub {
	t.Helper()
	ps, err := BuildPartitionSub(context.Background(), p, kT)
	if err != nil {
		t.Fatalf("BuildPartitionSub: %v", err)
	}
	return ps
}

// closeRel fails unless a and b agree to relative tolerance tol (absolute
// near zero). Log-sum-exp is not associative in floating point, so
// cross-schedule partition comparisons are tolerance-based, never exact.
func closeRel(t *testing.T, a, b, tol float64, label string) {
	t.Helper()
	if a == b {
		return
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1 {
		den = 1
	}
	if math.Abs(a-b)/den > tol {
		t.Fatalf("%s: %v vs %v (rel err %.3g > %.3g)", label, a, b, math.Abs(a-b)/den, tol)
	}
}

// TestPartitionVariantsAgree: every schedule computes the same BPPart table
// as the generic memoized oracle, to tight relative tolerance, across
// random shapes, worker counts and both memory maps.
func TestPartitionVariantsAgree(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		n1 := 1 + rng.Intn(8)
		n2 := 1 + rng.Intn(8)
		p := newTestProblem(t, seed+90, n1, n2)
		ps := buildTestPartitionSub(t, p, 1.0)
		ref, err := SolvePartitionContext(context.Background(), p, ps, VariantReference, Config{})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, v := range Variants {
			for _, cfg := range []Config{
				{Workers: 1},
				{Workers: 3, Map: MapPacked},
				{Workers: 2, TileI2: 3, TileK2: 2},
			} {
				got, err := SolvePartitionContext(context.Background(), p, ps, v, cfg)
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				for i1 := 0; i1 < p.N1; i1++ {
					for j1 := i1; j1 < p.N1; j1++ {
						for i2 := 0; i2 < p.N2; i2++ {
							for j2 := i2; j2 < p.N2; j2++ {
								closeRel(t, ref.LogAt(i1, j1, i2, j2), got.LogAt(i1, j1, i2, j2), 1e-9, v.String())
							}
						}
					}
				}
			}
		}
	}
}

// TestPartitionDominatesMaxPlus: lse(a,b) >= max(a,b) pointwise, so by
// induction over the recurrence LogZ >= maxplus score / kT, for every cell —
// the ensemble-beats-MFE consistency the serving layer's acceptance check
// relies on.
func TestPartitionDominatesMaxPlus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 1300))
		n1 := 1 + rng.Intn(9)
		n2 := 1 + rng.Intn(9)
		p := newTestProblem(t, seed+130, n1, n2)
		kT := 0.5 + rng.Float64()*2
		ps := buildTestPartitionSub(t, p, kT)
		mf := Solve(p, VariantHybrid, Config{})
		pf, err := SolvePartitionContext(context.Background(), p, ps, VariantHybrid, Config{})
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		for i1 := 0; i1 < p.N1; i1++ {
			for j1 := i1; j1 < p.N1; j1++ {
				for i2 := 0; i2 < p.N2; i2++ {
					for j2 := i2; j2 < p.N2; j2++ {
						logZ := pf.LogAt(i1, j1, i2, j2)
						bound := float64(mf.At(i1, j1, i2, j2)) / kT
						if math.IsInf(logZ, 0) || math.IsNaN(logZ) {
							t.Fatalf("LogZ[%d,%d,%d,%d] = %v not finite", i1, j1, i2, j2, logZ)
						}
						if logZ < bound-1e-9 {
							t.Fatalf("LogZ[%d,%d,%d,%d] = %v < score/kT = %v", i1, j1, i2, j2, logZ, bound)
						}
					}
				}
			}
		}
		// The whole-pair ensemble is strictly richer than its optimum
		// whenever more than one derivation exists (any pair with n1+n2 > 1).
		if n1+n2 > 1 {
			logZ := PartitionLogZ(p, pf)
			if logZ <= float64(p.Score(mf))/kT {
				t.Fatalf("whole-pair LogZ %v not strictly above score/kT %v", logZ, float64(p.Score(mf))/kT)
			}
		}
	}
}

// TestPartitionConvergesToMaxPlus: kT·LogZ → score as kT → 0 (the
// derivation count is finite, so the entropy term kT·log M vanishes).
func TestPartitionConvergesToMaxPlus(t *testing.T) {
	p := newTestProblem(t, 41, 6, 7)
	mf := Solve(p, VariantHybrid, Config{})
	score := float64(p.Score(mf))
	prevGap := math.Inf(1)
	for _, kT := range []float64{1.0, 0.25, 0.05, 0.01} {
		ps := buildTestPartitionSub(t, p, kT)
		pf, err := SolvePartitionContext(context.Background(), p, ps, VariantHybrid, Config{})
		if err != nil {
			t.Fatalf("kT=%v: %v", kT, err)
		}
		gap := kT*PartitionLogZ(p, pf) - score
		if gap < -1e-6 {
			t.Fatalf("kT=%v: kT·LogZ = %v below score %v", kT, gap+score, score)
		}
		if gap > prevGap+1e-9 {
			t.Fatalf("kT=%v: gap %v grew from %v", kT, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.2 {
		t.Fatalf("kT=0.01: kT·LogZ still %v above the max-plus score", prevGap)
	}
}

// TestPartitionPooledParity: a pooled partition fill is bit-identical to a
// fresh one (same schedule, same evaluation order — pooling must never
// change results), including after max-plus folds interleaved through the
// same pool exercised both element-width arenas.
func TestPartitionPooledParity(t *testing.T) {
	pl := NewPool()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 1700))
		n1 := 1 + rng.Intn(8)
		n2 := 1 + rng.Intn(8)
		p := newTestProblem(t, seed+170, n1, n2)
		ps := buildTestPartitionSub(t, p, 1.0)
		fresh, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, Config{Workers: 2})
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		// Interleave a pooled max-plus fold so the float32 arenas churn
		// between partition fills.
		mp := Solve(p, VariantHybrid, Config{Pool: pl})
		mp.Release()
		pooled, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, Config{Workers: 2, Pool: pl})
		if err != nil {
			t.Fatalf("pooled: %v", err)
		}
		for i1 := 0; i1 < p.N1; i1++ {
			for j1 := i1; j1 < p.N1; j1++ {
				for i2 := 0; i2 < p.N2; i2++ {
					for j2 := i2; j2 < p.N2; j2++ {
						if fresh.At(i1, j1, i2, j2) != pooled.At(i1, j1, i2, j2) {
							t.Fatalf("pooled F[%d,%d,%d,%d] = %v, fresh %v", i1, j1, i2, j2,
								pooled.At(i1, j1, i2, j2), fresh.At(i1, j1, i2, j2))
						}
					}
				}
			}
		}
		pooled.Release()
	}
	if st := pl.Stats(); st.Buffers.Live != 0 {
		t.Fatalf("leaked %d pooled buffers", st.Buffers.Live)
	}
}

// TestBuildPartitionSubRejectsBadKT: non-positive or non-finite kT is an
// input error, not a fill-time surprise.
func TestBuildPartitionSubRejectsBadKT(t *testing.T) {
	p := newTestProblem(t, 3, 4, 4)
	for _, kT := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := BuildPartitionSub(context.Background(), p, kT); err == nil {
			t.Errorf("kT=%v accepted", kT)
		}
	}
}

// TestPartitionForbiddenStaysForbidden: a model that forbids every pairing
// yields exactly one derivation (everything unpaired) — LogZ must be 0, not
// polluted by the -Inf sentinels.
func TestPartitionForbiddenStaysForbidden(t *testing.T) {
	p := newTestProblem(t, 5, 5, 6)
	// Zero out all allowed weights by scaling kT high: instead, build a
	// substrate and check the empty-structure floor directly — LogZ of any
	// cell is at least One (0) and finite.
	ps := buildTestPartitionSub(t, p, 1.0)
	pf, err := SolvePartitionContext(context.Background(), p, ps, VariantCoarse, Config{})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					// >= 0 up to the rounding of the scaled domain's read
					// conversion log(cell) + σ·len.
					if v := pf.LogAt(i1, j1, i2, j2); v < -1e-12 || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Fatalf("F[%d,%d,%d,%d] = %v; want finite and >= 0 (the empty derivation)", i1, j1, i2, j2, v)
					}
				}
			}
		}
	}
}

// logDomainFill runs schedule v over ps's log-domain view — the fill the
// scaled domain is measured against at sizes the top-down oracle is too
// slow for.
func logDomainFill(t testing.TB, p *Problem, ps *PartitionSub, v Variant, cfg Config) *FTableOf[float64] {
	t.Helper()
	ft, err := solveAlg(context.Background(), p, ps.logAlg(p), v, cfg)
	if err != nil {
		t.Fatalf("log-domain %s: %v", v, err)
	}
	return ft
}

// eachCell visits every stored cell index of an n1 × n2 table.
func eachCell(n1, n2 int, f func(i1, j1, i2, j2 int)) {
	for i1 := 0; i1 < n1; i1++ {
		for j1 := i1; j1 < n1; j1++ {
			for i2 := 0; i2 < n2; i2++ {
				for j2 := i2; j2 < n2; j2++ {
					f(i1, j1, i2, j2)
				}
			}
		}
	}
}

// TestScaledPartitionMatchesLogDomain: at every temperature the serving path
// supports, every cell of the scaled sum-product fill — all four optimized
// schedules — reads back (LogAt) within 1e-12 relative of the log-domain
// fill, and the scaled substrates agree with the log-domain ones on every
// interval. The scaled domain must actually have served the fill: a silent
// fallback would make the comparison vacuous.
func TestScaledPartitionMatchesLogDomain(t *testing.T) {
	ctx := context.Background()
	for _, sz := range [][2]int{{4, 24}, {6, 40}, {9, 56}} {
		p := newTestProblem(t, int64(sz[0]*1000+sz[1]), sz[0], sz[1])
		for _, kT := range []float64{2, 1, 0.5, 0.25, 0.1} {
			ps := buildTestPartitionSub(t, p, kT)
			if !ps.Scaled() {
				t.Fatalf("%dx%d kT=%v: substrate fell back to the log domain", sz[0], sz[1], kT)
			}
			want := logDomainFill(t, p, ps, VariantHybrid, Config{Workers: 2})
			la := ps.logAlg(p)
			for i := 0; i < p.N2; i++ {
				for j := i; j < p.N2; j++ {
					closeRel(t, ps.S2.LogAt(i, j), la.s2At(i, j), 1e-12, "S2")
				}
			}
			closeRel(t, ps.S1.LogAt(0, p.N1-1), la.s1At(0, p.N1-1), 1e-12, "LogZ1")
			for _, v := range []Variant{VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled} {
				got, err := SolvePartitionContext(ctx, p, ps, v, Config{Workers: 2, TileI2: 16, TileK2: 8})
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				if !got.Scaled() || got.GuardRefilled() {
					t.Fatalf("%dx%d kT=%v %s: served by the log domain", sz[0], sz[1], kT, v)
				}
				eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
					closeRel(t, want.LogAt(i1, j1, i2, j2), got.LogAt(i1, j1, i2, j2), 1e-12, v.String())
				})
			}
		}
	}
}

// bigOracle evaluates the BPMax grammar's derivation-weighted sum exactly,
// over the integers: at kT = 1/ln 2 the Boltzmann factor of an integer
// weight w is 2^w, so Z is an integer and math/big computes it without
// rounding. Same candidate sets as GTable.FillContext (strands) and refDPG
// (pair), top-down with memoization.
type bigOracle struct {
	p      *Problem
	s1, s2 map[[2]int]*big.Int
	f      map[[4]int]*big.Int
}

func pow2(w score.Value) *big.Int {
	if forbidden(w) {
		return new(big.Int)
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(w))
}

func (o *bigOracle) strand(memo map[[2]int]*big.Int, intra []score.Value, n, i, j int) *big.Int {
	if j <= i {
		return big.NewInt(1) // empty interval, or one unpaired base
	}
	if v, ok := memo[[2]int{i, j}]; ok {
		return v
	}
	rec := func(a, b int) *big.Int { return o.strand(memo, intra, n, a, b) }
	v := new(big.Int).Add(rec(i+1, j), rec(i, j-1))
	v.Add(v, new(big.Int).Mul(rec(i+1, j-1), pow2(intra[i*n+j])))
	for s := i; s < j; s++ {
		v.Add(v, new(big.Int).Mul(rec(i, s), rec(s+1, j)))
	}
	memo[[2]int{i, j}] = v
	return v
}

func (o *bigOracle) S1(i, j int) *big.Int { return o.strand(o.s1, o.p.Tab.Intra1, o.p.N1, i, j) }
func (o *bigOracle) S2(i, j int) *big.Int { return o.strand(o.s2, o.p.Tab.Intra2, o.p.N2, i, j) }

func (o *bigOracle) F(i1, j1, i2, j2 int) *big.Int {
	if j1 < i1 {
		return o.S2(i2, j2)
	}
	if j2 < i2 {
		return o.S1(i1, j1)
	}
	key := [4]int{i1, j1, i2, j2}
	if v, ok := o.f[key]; ok {
		return v
	}
	p := o.p
	mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
	v := new(big.Int)
	if i1 == j1 && i2 == j2 {
		v.Add(pow2(p.Tab.IScore(i1, i2)), big.NewInt(1))
	} else {
		v.Add(v, mul(o.F(i1+1, j1-1, i2, j2), pow2(p.Tab.Score1(i1, j1))))
		v.Add(v, mul(o.F(i1, j1, i2+1, j2-1), pow2(p.Tab.Score2(i2, j2))))
		v.Add(v, mul(o.S1(i1, j1), o.S2(i2, j2)))
		for k1 := i1; k1 < j1; k1++ {
			for k2 := i2; k2 < j2; k2++ {
				v.Add(v, mul(o.F(i1, k1, i2, k2), o.F(k1+1, j1, k2+1, j2)))
			}
		}
		for k2 := i2; k2 < j2; k2++ {
			v.Add(v, mul(o.S2(i2, k2), o.F(i1, j1, k2+1, j2)))
			v.Add(v, mul(o.F(i1, j1, i2, k2), o.S2(k2+1, j2)))
		}
		for k1 := i1; k1 < j1; k1++ {
			v.Add(v, mul(o.S1(i1, k1), o.F(k1+1, j1, i2, j2)))
			v.Add(v, mul(o.F(i1, k1, i2, j2), o.S1(k1+1, j1)))
		}
	}
	o.f[key] = v
	return v
}

// bigLog returns log z for a positive integer, exact to float64 rounding.
func bigLog(z *big.Int) float64 {
	mant := new(big.Float)
	exp := new(big.Float).SetInt(z).MantExp(mant)
	m, _ := mant.Float64()
	return math.Log(m) + float64(exp)*math.Ln2
}

// logZErrorBound is the documented accuracy of either partition fill against
// the exact sum, in log units (so: relative error of Z), for an n1 × n2
// pair: every stored cell is a sum of non-negative products of cells of
// strictly shorter span, so rounding compounds once per unit of span —
// depth n1+n2 — at a few ulps per level (the products, the running sums,
// and in the log domain the exp/log1p pair). 16 ulps per level is four times
// the worst case the test measures (inputs included: e^{w/kT} is itself
// rounded).
func logZErrorBound(n1, n2 int) float64 { return 16 * float64(n1+n2) * 0x1p-53 }

// TestPartitionMatchesExactSum is ROADMAP 4(b)'s error bound, written down:
// at tiny sizes both fills' LogZ (and every interior cell) sit within
// logZErrorBound of the exact integer-arithmetic sum. The long shapes run
// rows across a whole float64 sweep block; there the log domain's bound is scaled by max(1, |log Z|), because
// it stores log Z itself and one ulp of a |log Z| near 40 is 2⁻⁴⁷, 64 times
// the unscaled bound's 2⁻⁵³, so a legal reordering of the sums can exceed
// the unscaled bound there. The log line reports both ratios.
func TestPartitionMatchesExactSum(t *testing.T) {
	if _, ok := score.DefaultParams().Model.IntegerBounded(); !ok {
		t.Skip("the exact oracle needs integer pair weights")
	}
	ctx := context.Background()
	kT := 1 / math.Ln2 // e^{w/kT} = 2^w
	worst := map[string]float64{}
	long := [][2]int{{1, 17}, {2, 33}, {1, 40}, {2, 40}}
	for seed := int64(0); seed < 12+int64(len(long)); seed++ {
		rng := rand.New(rand.NewSource(seed + 2100))
		n1, n2 := 1+rng.Intn(3), 1+rng.Intn(6)
		i := int(seed) - 12
		if i >= 0 {
			n1, n2 = long[i][0], long[i][1]
		}
		p := newTestProblem(t, seed+210, n1, n2)
		o := &bigOracle{p: p, s1: map[[2]int]*big.Int{}, s2: map[[2]int]*big.Int{}, f: map[[4]int]*big.Int{}}
		ps := buildTestPartitionSub(t, p, kT)
		scaled, err := SolvePartitionContext(ctx, p, ps, VariantHybridTiled, Config{Workers: 1})
		if err != nil || !scaled.Scaled() {
			t.Fatalf("scaled fill: %v (scaled=%v)", err, scaled.Scaled())
		}
		logd := logDomainFill(t, p, ps, VariantHybridTiled, Config{Workers: 1})
		bound := logZErrorBound(n1, n2)
		eachCell(n1, n2, func(i1, j1, i2, j2 int) {
			want := bigLog(o.F(i1, j1, i2, j2))
			for name, ft := range map[string]*FTableOf[float64]{"scaled": scaled, "log": logd} {
				d := math.Abs(ft.LogAt(i1, j1, i2, j2) - want)
				worst[name] = math.Max(worst[name], d/bound)
				b := bound
				if name == "log" && i >= 0 {
					b *= math.Max(1, math.Abs(want))
					worst["log, scaled bound"] = math.Max(worst["log, scaled bound"], d/b)
				}
				if d > b {
					t.Fatalf("%dx%d %s F[%d,%d,%d,%d]: |ΔlogZ| = %.3g > bound %.3g", n1, n2, name, i1, j1, i2, j2, d, b)
				}
			}
		})
		if d := math.Abs(ps.S2.LogAt(0, n2-1) - bigLog(o.S2(0, n2-1))); d > bound {
			t.Fatalf("LogZ2: |Δ| = %.3g > bound %.3g", d, bound)
		}
	}
	t.Logf("worst |ΔlogZ| / bound: scaled %.3f, log %.3f (long shapes against the scaled bound: %.3f)",
		worst["scaled"], worst["log"], worst["log, scaled bound"])
}

// TestGuardWindow: the window admits exactly the finite cells in
// [2⁻⁹⁰⁰, 2⁹⁰⁰]; a zero, a denormal, an overflow and a NaN are all trips.
func TestGuardWindow(t *testing.T) {
	if !inGuardWindow([]float64{1, guardLo, guardHi, 1e-200, 1e200}) {
		t.Fatal("in-window cells rejected")
	}
	for _, bad := range []float64{0, 5e-324, guardLo / 2, guardHi * 2, math.Inf(1), math.NaN(), -1} {
		if inGuardWindow([]float64{1, bad, 1}) {
			t.Errorf("cell %v accepted", bad)
		}
	}
}

// TestPartitionGuardFallsBack: a scaled fill that leaves the window — by a
// poisoned input, or organically on a pair whose interaction dwarfs what the
// per-strand scales absorb — is discarded and refilled in the log domain, so
// the caller sees the oracle's answer with GuardRefilled set; and a strand
// whose own build trips comes back as a log-domain substrate.
func TestPartitionGuardFallsBack(t *testing.T) {
	ctx := context.Background()
	check := func(label string, p *Problem, ps *PartitionSub) {
		t.Helper()
		if !ps.Scaled() {
			t.Fatalf("%s: substrate not scaled; the fill guard is not under test", label)
		}
		want, err := SolvePartitionContext(ctx, p, ps, VariantReference, Config{})
		if err != nil {
			t.Fatalf("%s reference: %v", label, err)
		}
		for _, v := range []Variant{VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled} {
			got, err := SolvePartitionContext(ctx, p, ps, v, Config{Workers: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", label, v, err)
			}
			if got.Scaled() || !got.GuardRefilled() {
				t.Fatalf("%s %s: scaled=%v refilled=%v, want a log-domain refill", label, v, got.Scaled(), got.GuardRefilled())
			}
			eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
				closeRel(t, want.LogAt(i1, j1, i2, j2), got.LogAt(i1, j1, i2, j2), 1e-9, label+" "+v.String())
			})
		}
	}

	p := newTestProblem(t, 77, 5, 9)
	for _, poison := range []float64{math.Inf(1), math.NaN(), 0x1p+1000} {
		ps := buildTestPartitionSub(t, p, 1)
		for i := range ps.a.isc {
			if ps.a.isc[i] != 0 { // keep forbidden bonds forbidden: poison an allowed one
				ps.a.isc[i] = poison
				break
			}
		}
		check(fmt.Sprintf("poison %v", poison), p, ps)
	}

	// Neither strand can pair with itself, so σ₁, σ₂ only absorb the
	// derivation entropy; eight G·C bonds at kT = 0.01 put e^{2400} into F.
	g, _ := rna.New("GGGGGGGG")
	c, _ := rna.New("CCCCCCCCCC")
	gc, err := NewProblem(g, c, score.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	check("organic", gc, buildTestPartitionSub(t, gc, 0.01))

	// kT so small that a single pair's factor leaves the window: the strand
	// builds themselves fall back.
	cold := buildTestPartitionSub(t, p, 1e-3)
	if cold.S2.Scaled() || cold.Scaled() {
		t.Fatalf("kT=1e-3: S2 scaled=%v sub scaled=%v, want the log domain", cold.S2.Scaled(), cold.Scaled())
	}
	ft, err := SolvePartitionContext(ctx, p, cold, VariantHybrid, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mf := Solve(p, VariantHybrid, Config{})
	if gap := 1e-3*PartitionLogZ(p, ft) - float64(p.Score(mf)); gap < -1e-6 || gap > 0.1 {
		t.Fatalf("kT=1e-3: kT·LogZ is %v off the max-plus score", gap)
	}
}

// TestStarTableIsTheChainSum holds strand 2's star table to its definition:
// row k+1 is (T* − I)[k,·], the sum over every chain k = m₀ < m₁ < … < m_t = j
// of Π S²[m_i+1, m_{i+1}], enumerated here by brute force for n ≤ 10 — in the
// scaled domain as a linear sum, in the log domain as the log of one.
func TestStarTableIsTheChainSum(t *testing.T) {
	for n := 1; n <= 10; n++ {
		p := newTestProblem(t, int64(340+n), 3, n)
		ps := buildTestPartitionSub(t, p, 1)
		if !ps.Scaled() {
			t.Fatalf("n=%d: substrate fell back to the log domain", n)
		}
		s2, lg := ps.a.s2, ps.logAlg(p)
		// chains returns the sum over every chain from k to j.
		var chains func(k, j int) float64
		chains = func(k, j int) float64 {
			sum := s2[(k+1)*n+j]
			for m := k + 1; m < j; m++ {
				sum += chains(k, m) * s2[(m+1)*n+j]
			}
			return sum
		}
		for k := 0; k+1 < n; k++ {
			for j := k + 1; j < n; j++ {
				want := chains(k, j)
				if got := ps.a.star[(k+1)*n+j]; math.Abs(got-want) > 1e-13*want {
					t.Fatalf("n=%d: scaled star[%d,%d] = %v, chain sum %v", n, k+1, j, got, want)
				}
				// The log view's cells are unscaled: add back the damping of the
				// j-k nucleotides a chain from k to j spans.
				want = math.Log(want) + ps.a.dom.sig2*float64(j-k)
				closeRel(t, want, lg.star[(k+1)*n+j], 1e-13, fmt.Sprintf("n=%d: log star[%d,%d]", n, k+1, j))
			}
		}
		ps.Release()
	}
}

// TestStarOutsideGuardGoesLog: a strand-2 table whose every cell sits inside
// the guard window but whose star table does not sends the substrate to the
// log domain, exactly as an out-of-window pair factor does, and the fold
// still returns the oracle's LogZ. A control table of ones stays scaled.
func TestStarOutsideGuardGoesLog(t *testing.T) {
	ctx := context.Background()
	p := newTestProblem(t, 34, 4, 7)
	base := buildTestPartitionSub(t, p, 1)
	synthetic := func(v float64) *PartitionS {
		tab := nussinov.NewGTable[float64](p.N2)
		for i := 0; i < p.N2; i++ {
			for j := i; j < p.N2; j++ {
				tab.Data()[i*tab.Pitch()+j] = v
			}
		}
		return &PartitionS{T: tab, scaled: true, sigma: base.S2.sigma}
	}
	for _, c := range []struct {
		cell   float64
		scaled bool
	}{{1, true}, {0x1p+500, false}} {
		ps, err := NewPartitionSub(p, 1, base.S1, synthetic(c.cell))
		if err != nil {
			t.Fatal(err)
		}
		if ps.Scaled() != c.scaled {
			t.Fatalf("S² cells %v: substrate scaled = %v, want %v", c.cell, ps.Scaled(), c.scaled)
		}
		want, err := SolvePartitionContext(ctx, p, ps, VariantReference, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolvePartitionContext(ctx, p, ps, VariantHybridTiled, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got.Scaled() != c.scaled {
			t.Fatalf("S² cells %v: fill scaled = %v, want %v", c.cell, got.Scaled(), c.scaled)
		}
		closeRel(t, PartitionLogZ(p, want), PartitionLogZ(p, got), 1e-12, fmt.Sprintf("S² cells %v: LogZ", c.cell))
	}
}

// TestScaledPartitionFillIsTheGoLoopsBitForBit: the scaled fill sums — ⊕ is
// +, which neither absorbs a candidate applied twice nor forgives one applied
// out of order — so its table on each vector body equals the table on the
// portable loops bit for bit only if every lane of every sweep received
// each of its k2 candidates once, in ascending order: R0 and R1 across block
// edges, and R2's sweep against the star table. Rows of several float64
// blocks, both maps.
func TestScaledPartitionFillIsTheGoLoopsBitForBit(t *testing.T) {
	for _, sh := range [][2]int{{3, 70}, {2, 33}, {4, 17}} {
		for _, kind := range []MapKind{MapBox, MapPacked} {
			rng := rand.New(rand.NewSource(int64(sh[1])))
			p, err := NewProblem(rna.Random(rng, sh[0]), rna.Random(rng, sh[1]), score.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			ps := buildTestPartitionSub(t, p, 1)
			solve := func(impl string) *FTableOf[float64] {
				cfg := Config{Workers: 1, Map: kind}
				cfg.SetKernels(impl)
				ft, err := SolvePartitionContext(context.Background(), p, ps, VariantHybridTiled, cfg)
				if err != nil || !ft.Scaled() {
					t.Fatalf("%dx%d %v: scaled fill: %v (scaled %v)", sh[0], sh[1], kind, err, ft.Scaled())
				}
				return ft
			}
			want := solve("go")
			for _, impl := range maxplus.Impls() {
				got := solve(impl)
				eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
					if g, w := got.At(i1, j1, i2, j2), want.At(i1, j1, i2, j2); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%dx%d %v: F[%d,%d,%d,%d] = %x on the %s kernels, %x on the Go loops",
							sh[0], sh[1], kind, i1, j1, i2, j2, math.Float64bits(g), impl, math.Float64bits(w))
					}
				})
			}
		}
	}
}

// TestPartitionSTiledMatchesInline: a strand long enough to tile builds its
// scaled Boltzmann table on two workers — the score adapter and the range
// guard's flag then run on both at once — bit for bit as on one.
func TestPartitionSTiledMatchesInline(t *testing.T) {
	p := newTestProblem(t, 39, nussinov.SequentialCutoff+1, 1)
	var tabs [2]*PartitionS
	for w := range tabs {
		s, err := BuildPartitionS(context.Background(), p, 1, 1, Config{Workers: w + 1})
		if err != nil || !s.Scaled() {
			t.Fatalf("workers=%d: %v (scaled %v)", w+1, err, err == nil && s.Scaled())
		}
		tabs[w] = s
	}
	for i := 0; i < p.N1; i++ {
		for j := i; j < p.N1; j++ {
			if a, b := tabs[0].T.At(i, j), tabs[1].T.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("S[%d,%d] = %v on one worker, %v on two", i, j, a, b)
			}
		}
	}
}
