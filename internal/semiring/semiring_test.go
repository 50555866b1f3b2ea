package semiring_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"

	. "github.com/bpmax-go/bpmax/internal/semiring"
)

func TestMaxPlusLaws(t *testing.T) {
	sr := MaxPlus{}
	f := func(ra, rb, rc int16) bool {
		a, b, c := float32(ra)/8, float32(rb)/8, float32(rc)/8
		// Commutativity and associativity of both operations.
		if sr.Add(a, b) != sr.Add(b, a) || sr.Mul(a, b) != sr.Mul(b, a) {
			return false
		}
		if sr.Add(sr.Add(a, b), c) != sr.Add(a, sr.Add(b, c)) {
			return false
		}
		// Identities.
		if sr.Add(a, sr.Zero()) != a || sr.Mul(a, sr.One()) != a {
			return false
		}
		// Distributivity: a ⊗ (b ⊕ c) == (a⊗b) ⊕ (a⊗c).
		return sr.Mul(a, sr.Add(b, c)) == sr.Add(sr.Mul(a, b), sr.Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountingLaws(t *testing.T) {
	sr := Counting{}
	f := func(ra, rb, rc uint8) bool {
		a, b, c := float64(ra), float64(rb), float64(rc)
		return sr.Add(a, b) == sr.Add(b, a) &&
			sr.Mul(a, sr.Add(b, c)) == sr.Add(sr.Mul(a, b), sr.Mul(a, c)) &&
			sr.Add(a, sr.Zero()) == a && sr.Mul(a, sr.One()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSumExpLaws(t *testing.T) {
	sr := LogSumExp{}
	if sr.Add(sr.Zero(), 3) != 3 || sr.Add(3, sr.Zero()) != 3 {
		t.Error("LogSumExp Zero is not identity")
	}
	if sr.Mul(5, sr.One()) != 5 {
		t.Error("LogSumExp One is not identity")
	}
	// log(e^1 + e^1) = 1 + log 2.
	if got := sr.Add(1, 1); math.Abs(got-(1+math.Log(2))) > 1e-12 {
		t.Errorf("Add(1,1) = %v", got)
	}
	// Commutative within fp tolerance.
	if math.Abs(sr.Add(2, 7)-sr.Add(7, 2)) > 1e-12 {
		t.Error("LogSumExp Add not commutative")
	}
}

func TestFoldMaxPlusMatchesNussinov(t *testing.T) {
	m := score.BasePair()
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		seq := rna.Random(rng, n)
		sc := func(i, j int) float32 { return m.Pair(seq.At(i), seq.At(j)) }
		want := nussinov.Build(n, sc)
		got := Fold[float32](MaxPlus{}, n, sc)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				// The unambiguous decomposition and the redundant one
				// optimize the same structure set.
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("seed %d: semiring S[%d,%d]=%v, nussinov %v",
						seed, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// bruteCount counts non-crossing structures over [i,j] where allowed pairs
// are given by ok; the empty structure counts.
func bruteCount(i, j int, ok func(a, b int) bool) float64 {
	if j <= i {
		return 1
	}
	// j unpaired.
	total := bruteCount(i, j-1, ok)
	for k := i; k < j; k++ {
		if ok(k, j) {
			total += bruteCount(i, k-1, ok) * bruteCount(k+1, j-1, ok)
		}
	}
	return total
}

func TestFoldCountingMatchesBruteForce(t *testing.T) {
	m := score.BasePair()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 5))
		n := 1 + rng.Intn(10)
		seq := rna.Random(rng, n)
		ok := func(a, b int) bool { return m.Allowed(seq.At(a), seq.At(b)) }
		pair := func(a, b int) float64 {
			if ok(a, b) {
				return 1
			}
			return 0
		}
		tb := Fold[float64](Counting{}, n, pair)
		if got, want := tb.At(0, n-1), bruteCount(0, n-1, ok); got != want {
			t.Errorf("seed %d (%s): counted %v structures, brute force %v", seed, seq, got, want)
		}
	}
}

func TestLogSumExpConvergesToMaxPlus(t *testing.T) {
	// kT·logZ → max score as kT → 0 (the zero-temperature limit that ties
	// BPMax to the partition ensemble).
	m := score.BasePair()
	rng := rand.New(rand.NewSource(3))
	seq := rna.Random(rng, 14)
	sc := func(i, j int) float32 { return m.Pair(seq.At(i), seq.At(j)) }
	maxS := float64(Fold[float32](MaxPlus{}, 14, sc).At(0, 13))
	kT := 0.01
	pair := func(i, j int) float64 {
		w := float64(sc(i, j))
		if w < -1e20 {
			return math.Inf(-1)
		}
		return w / kT
	}
	logZ := Fold[float64](LogSumExp{}, 14, pair).At(0, 13)
	if got := kT * logZ; math.Abs(got-maxS) > 0.2 {
		t.Errorf("kT·logZ = %v, max-plus = %v", got, maxS)
	}
	// And logZ strictly exceeds the single best structure's contribution
	// whenever more than one structure exists.
	if logZ <= maxS/kT-1e-9 {
		t.Errorf("logZ = %v below best structure %v", logZ, maxS/kT)
	}
}

// bruteOptima enumerates all structures of [i,j] and returns the best
// weight and how many structures achieve it.
func bruteOptima(i, j int, sc func(a, b int) float32, ok func(a, b int) bool) (float32, float64) {
	if j <= i {
		return 0, 1
	}
	// j unpaired.
	best, count := bruteOptima(i, j-1, sc, ok)
	for k := i; k < j; k++ {
		if !ok(k, j) {
			continue
		}
		ls, lc := bruteOptima(i, k-1, sc, ok)
		is, ic := bruteOptima(k+1, j-1, sc, ok)
		v := ls + is + sc(k, j)
		c := lc * ic
		switch {
		case v > best:
			best, count = v, c
		case v == best:
			count += c
		}
	}
	return best, count
}

func TestMaxPlusCountMatchesBruteForce(t *testing.T) {
	m := score.BasePair()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 77))
		n := 1 + rng.Intn(9)
		seq := rna.Random(rng, n)
		sc := func(a, b int) float32 { return m.Pair(seq.At(a), seq.At(b)) }
		ok := func(a, b int) bool { return m.Allowed(seq.At(a), seq.At(b)) }
		pair := func(a, b int) Optimum {
			if ok(a, b) {
				return Optimum{Score: sc(a, b), Count: 1}
			}
			return MaxPlusCount{}.Zero()
		}
		tb := Fold[Optimum](MaxPlusCount{}, n, pair)
		got := tb.At(0, n-1)
		wantScore, wantCount := bruteOptima(0, n-1, sc, ok)
		if got.Score != wantScore || got.Count != wantCount {
			t.Errorf("seed %d (%s): optima = (%v, %v), brute = (%v, %v)",
				seed, seq, got.Score, got.Count, wantScore, wantCount)
		}
	}
}

func TestMaxPlusCountLaws(t *testing.T) {
	sr := MaxPlusCount{}
	a := Optimum{Score: 3, Count: 2}
	b := Optimum{Score: 3, Count: 5}
	c := Optimum{Score: 1, Count: 9}
	if got := sr.Add(a, b); got.Count != 7 || got.Score != 3 {
		t.Errorf("tie Add = %+v", got)
	}
	if got := sr.Add(a, c); got != a {
		t.Errorf("dominant Add = %+v", got)
	}
	if got := sr.Mul(a, c); got.Score != 4 || got.Count != 18 {
		t.Errorf("Mul = %+v", got)
	}
	if got := sr.Add(a, sr.Zero()); got != a {
		t.Errorf("Zero not identity: %+v", got)
	}
	if got := sr.Mul(a, sr.One()); got != a {
		t.Errorf("One not identity: %+v", got)
	}
	if got := sr.Mul(a, sr.Zero()); got.Count != 0 {
		t.Errorf("Mul by Zero = %+v", got)
	}
}

func TestFoldEmptyAndSingle(t *testing.T) {
	tb := Fold[float64](Counting{}, 0, func(i, j int) float64 { return 1 })
	if tb.N != 0 {
		t.Error("empty fold")
	}
	tb1 := Fold[float64](Counting{}, 1, func(i, j int) float64 { return 1 })
	if tb1.At(0, 0) != 1 {
		t.Errorf("single-base count = %v", tb1.At(0, 0))
	}
	// Empty interval reads return One.
	if tb1.At(1, 0) != 1 {
		t.Errorf("empty interval = %v", tb1.At(1, 0))
	}
}

// checkKernels: a bundle's streaming kernels must be its scalar ⊕ and ⊗
// applied elementwise — the contract the generic fill relies on when it
// mixes streamed rows with per-cell updates.
func checkKernels[T Scalar](t *testing.T, name string, k Kernels[T], x []T, a1, a2 T) {
	t.Helper()
	y0 := make([]T, len(x))
	for i := range y0 {
		y0[i] = k.Mul(x[len(x)-1-i], a2)
	}
	acc := append([]T(nil), y0...)
	k.Accum(acc, x, a1)
	into := make([]T, len(x))
	k.MulInto(into, x, a1)
	for i, v := range x {
		if want := k.Add(k.Mul(a1, v), y0[i]); acc[i] != want {
			t.Errorf("%s: Accum[%d] = %v, want %v", name, i, acc[i], want)
		}
		if want := k.Mul(a1, v); into[i] != want {
			t.Errorf("%s: MulInto[%d] = %v, want %v", name, i, into[i], want)
		}
	}
	// Sweep over an n×n box block whose row r is x rotated by r: the k2 loop
	// of Accum calls, hence of scalar ⊕/⊗, in k2 order, right of column 3.
	n := len(x)
	off, blk := make([]int, n), make([]T, n*n)
	for r := range off {
		off[r] = r * n
		for j := range x {
			blk[r*n+j] = x[(r+j)%n]
		}
	}
	swept, want := append([]T(nil), y0...), append([]T(nil), y0...)
	k.Sweep(swept, x, blk, off, 1, n-1, 3, n, maxplus.Pre[T]{})
	for k2 := 1; k2 < n-1; k2++ {
		for j := max(k2+1, 3); j < n; j++ {
			want[j] = k.Add(k.Mul(x[k2], blk[off[k2+1]+j]), want[j])
		}
	}
	for j := range want {
		if swept[j] != want[j] {
			t.Errorf("%s: Sweep[%d] = %v, want %v", name, j, swept[j], want[j])
		}
	}
	// With pre-streams from column 2: every lane from there takes x ⊗ a1,
	// then y0 ⊗ a2, then its k2 from k0 = 3 up; and with k0 = k1, those alone.
	for _, k0 := range []int{3, n - 1} {
		swept, want = append([]T(nil), y0...), append([]T(nil), y0...)
		k.Sweep(swept, x, blk, off, k0, n-1, 1, n, maxplus.Pre[T]{X1: x, X2: y0, A1: a1, A2: a2, C0: 2})
		for j := 2; j < n; j++ {
			want[j] = k.Add(k.Mul(a1, x[j]), want[j])
			want[j] = k.Add(k.Mul(a2, y0[j]), want[j])
		}
		for k2 := k0; k2 < n-1; k2++ {
			for j := k2 + 1; j < n; j++ {
				want[j] = k.Add(k.Mul(x[k2], blk[off[k2+1]+j]), want[j])
			}
		}
		for j := range want {
			if swept[j] != want[j] {
				t.Errorf("%s: Sweep[%d] from k0 = %d with pre-streams = %v, want %v", name, j, k0, swept[j], want[j])
			}
		}
	}
	// AccumEach: y[j] ⊕ x[j] ⊗ w[j], with w = y.
	each := append([]T(nil), y0...)
	k.AccumEach(each, x, y0)
	for i, v := range x {
		if want := k.Add(k.Mul(v, y0[i]), y0[i]); each[i] != want {
			t.Errorf("%s: AccumEach[%d] = %v, want %v", name, i, each[i], want)
		}
	}
	// Product: c (5 rows of n-2, stride n) ⊕= a (5 rows of n-3) ⊗ b (n-3
	// rows of n-2), a, b and c cut from the box block at stride n: every
	// (row, split) in split order, a whole tile of four rows and one row more.
	const m = 5
	w, kk := n-2, n-3
	prod, wantProd := make([]T, m*n), make([]T, m*n)
	for i := range prod {
		prod[i] = y0[i%n]
		wantProd[i] = prod[i]
	}
	k.Product(prod, n, blk[1:], n, blk[2*n:], n, m, w, kk, -n, maxplus.Pre[T]{}, nil)
	for r := 0; r < m; r++ {
		for s := 0; s < kk; s++ {
			for j := 0; j < w; j++ {
				wantProd[r*n+j] = k.Add(k.Mul(blk[1+r*n+s], blk[2*n+s*n+j]), wantProd[r*n+j])
			}
		}
	}
	for i := range wantProd {
		if prod[i] != wantProd[i] {
			t.Errorf("%s: Product cell (%d, %d) = %v, want %v", name, i/n, i%n, prod[i], wantProd[i])
		}
	}
	if k.Add(k.Zero, a1) != a1 || k.Mul(k.One, a1) != a1 || k.Mul(k.Zero, a1) != k.Zero {
		t.Errorf("%s: Zero/One are not the ⊕/⊗ identities (or Zero does not annihilate)", name)
	}
}

func TestKernelBundlesMatchTheirScalars(t *testing.T) {
	// 0.1, 1/3 and 0.7 make the sum-product's products inexact: a body that
	// fused ⊗ into ⊕ would miss its scalars by a last bit.
	x64 := []float64{0.25, 3, 1.5, 0.1, 7, 2, 1.0 / 3, 1, 9}
	checkKernels(t, "logsumexp", LogSumExpKernels(), x64, 0.7, 2.5)
	checkKernels(t, "sumproduct", SumProductKernels(), x64, 0.7, 2.5)
	checkKernels(t, "sumproduct-go", SumProductKernelsOf("go"), x64, 0.7, 2.5)
	x32 := []float32{0.25, 3, 1.5, 0.125, 7, 2, 0.5, 1, 9}
	checkKernels(t, "maxplus", MaxPlusKernels(false), x32, 0.75, 2.5)
	checkKernels(t, "maxplus-unrolled", MaxPlusKernels(true), x32, 0.75, 2.5)
	checkKernels(t, "maxplus-go", MaxPlusKernelsGo(), x32, 0.75, 2.5)
	checkKernels(t, "maxplus-go-unrolled", MaxPlusKernelsOf("go"), x32, 0.75, 2.5)
	// Every body the CPU can run, by name: the parity tests' seam.
	for _, impl := range maxplus.Impls() {
		mp, sp := MaxPlusKernelsOf(impl), SumProductKernelsOf(impl)
		if mp.Impl != impl || sp.Impl != impl {
			t.Errorf("the %s bundles report Impl %q and %q", impl, mp.Impl, sp.Impl)
		}
		checkKernels(t, "maxplus-"+impl, mp, x32, 0.75, 2.5)
		checkKernels(t, "sumproduct-"+impl, sp, x64, 0.7, 2.5)
	}
}
