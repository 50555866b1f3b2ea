package maxplus

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The differential test of every streaming-kernel body this process can run
// (avx512 and avx2 on a CPU with AVX-512, avx2 alone on one without) against
// the portable Go loops, in both algebras: same bit patterns out, nothing
// written outside the slices. Under `-tags purego` and off amd64 the one body
// is the Go loops and it passes trivially.

const (
	maxLen = 70 // lengths 0..maxLen cover 0-4 full vectors plus every tail
	guard  = 16 // elements on either side of every slice that must not change
)

type elem interface{ float32 | float64 }

// lanes is the number of elements of T in one 64-byte vector, blockLanes in
// one 256-byte block of four: the widest unit a sweep holds in registers. A
// test that covers every lane of them covers every lane of the AVX2 bodies'
// 32-byte vectors and 128-byte blocks too.
func lanes[T elem]() int      { return 64 / int(unsafe.Sizeof(T(0))) }
func blockLanes[T elem]() int { return 256 / int(unsafe.Sizeof(T(0))) }

// testBodies names the bodies the tests hold to the Go loops: every vector
// body this process can run, or the Go body where there is none.
func testBodies() []string {
	if impls := Impls(); len(impls) > 1 {
		return impls[:len(impls)-1]
	}
	return []string{"go"}
}

func bits[T elem](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// algebra is one algebra's plain Go loops, which every body must match.
type algebra[T elem] struct {
	name       string
	goLoops    Body[T]
	zero       T   // ⊕'s identity, which a product's b holds below its diagonal
	guardWord  T   // a NaN pattern no kernel produces, so a stray store shows
	specials   []T // the operands that separate a correct lane from a nearly correct one
	ordinary   func(rng *rand.Rand) T
	sweepPanic string // how the sweep's argument panics begin
}

// eachBody runs f as one subtest per body in testBodies, on that body's
// kernels.
func eachBody[T elem](t *testing.T, k *algebra[T], f func(*testing.T, *algebra[T], Body[T])) {
	for _, impl := range testBodies() {
		t.Run(impl, func(t *testing.T) { f(t, k, BodyOf[T](impl)) })
	}
}

// There is one NaN payload among the float32 specials on purpose: which of
// two different NaNs an add returns depends on the operand order the compiler
// picked for `a + x[i]`, and the fill never produces one.
var maxPlus = algebra[float32]{
	name: "max-plus float32",
	goLoops: Body[float32]{Impl: "plain", Accum: AccumulateGo, AccumEach: AccumEachGo, MulInto: AddScalarIntoGo, Sweep: SweepGo,
		Product: ProductGo, R2: r2Of(nil), Live: liveOf(nil)},
	zero:      -1e30, // semiring.NegInf
	guardWord: math.Float32frombits(0x7fa5a5a5),
	specials: []float32{
		float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		-1e30, // semiring.NegInf, the forbidden sentinel
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
		math.MaxFloat32, -math.MaxFloat32, // a+x overflows to ±Inf
		1, -1, 3, -7, 0.5, 16777216,
	},
	ordinary:   func(rng *rand.Rand) float32 { return float32(rng.Intn(41) - 20) },
	sweepPanic: "maxplus: Sweep ",
}

// The sum-product's one NaN is the payload the hardware itself makes of
// 0 × Inf and Inf - Inf: y + a·x meets that one whatever the operands hold,
// and with a second payload in play the survivor would again depend on the
// compiler's operand order. Its ordinary operands carry full mantissas, so
// nearly every product is inexact and a fused multiply-add on either side
// shows as a different last bit.
var sumProduct = algebra[float64]{
	name: "sum-product float64",
	goLoops: Body[float64]{Impl: "plain", Accum: SumProductGo, AccumEach: SumProductEachGo, MulInto: MulScalarIntoGo, Sweep: SumProductSweepGo,
		Product: SumProductProductGo},
	zero:      0,
	guardWord: math.Float64frombits(0x7ff4a5a5a5a5a5a5),
	specials: []float64{
		math.Float64frombits(0xfff8000000000000),
		math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64, // a·x overflows to ±Inf
		0x1p-900, 0x1p+900, // the scaled fill's guard window
		1, -1, 3, -7, 0.5, 1 << 53,
		1 + 0x1p-30, -(1 + 0x1p-29), // (1+2⁻³⁰)² - (1+2⁻²⁹) is 0 rounded twice, 2⁻⁶⁰ fused
	},
	ordinary:   func(rng *rand.Rand) float64 { return rng.NormFloat64() },
	sweepPanic: "maxplus: SumProductSweep ",
}

func (k *algebra[T]) operand(rng *rand.Rand) T {
	if rng.Intn(3) == 0 {
		return k.specials[rng.Intn(len(k.specials))]
	}
	return k.ordinary(rng)
}

// arena hands out slices at a chosen lane of the 256-byte grid (lane mod
// lanes of the 64-byte one), each fenced by guard words, from one backing
// buffer whose bits can be compared whole.
type arena[T elem] struct {
	buf         []T
	first, next int // buf[first] and buf[next] are on the grid
}

func newArena[T elem](cells int, guardWord T) *arena[T] {
	a := &arena[T]{buf: make([]T, cells+blockLanes[T]())}
	for i := range a.buf {
		a.buf[i] = guardWord
	}
	for uintptr(unsafe.Pointer(&a.buf[a.first]))%256 != 0 {
		a.first++
	}
	a.next = a.first
	return a
}

// slice returns n elements whose first sits at lane `lane` of its block.
func (a *arena[T]) slice(n, lane int) []T {
	lo := a.next + guard + lane
	a.next = a.first + (lo+n+guard-a.first+blockLanes[T]()-1)&^(blockLanes[T]()-1)
	return a.buf[lo : lo+n : lo+n]
}

// arenaRoom is the size of an arena that `slices` slices totalling `cells`
// elements fit in.
func arenaRoom(slices, cells int) int { return cells + slices*(2*guard+128) }

// pair is two arenas cut identically: the kernels under test run on one, the
// Go loops on the other.
type pair[T elem] struct {
	k         *algebra[T]
	got, want *arena[T]
}

// newPair sizes both arenas for `slices` slices totalling `cells` elements.
func newPair[T elem](k *algebra[T], slices, cells int) pair[T] {
	room := arenaRoom(slices, cells)
	return pair[T]{k, newArena(room, k.guardWord), newArena(room, k.guardWord)}
}

// slice cuts the same slice from both arenas and fills both with the same
// operands.
func (p pair[T]) slice(rng *rand.Rand, n, lane int) (got, want []T) {
	got, want = p.got.slice(n, lane), p.want.slice(n, lane)
	for i := range got {
		got[i] = p.k.operand(rng)
		want[i] = got[i]
	}
	return got, want
}

// check compares the two arenas over everything handed out so far, results
// and guard words alike.
func (p pair[T]) check(t *testing.T, what string) {
	t.Helper()
	g, w := p.got.buf[p.got.first:p.got.next], p.want.buf[p.want.first:p.want.next]
	for i := range g {
		if bits(g[i]) != bits(w[i]) {
			t.Fatalf("%s: word %d of the arena is %#x, the Go loops leave %#x", what, i, bits(g[i]), bits(w[i]))
		}
	}
}

func TestStreamKernelsMatchGoBitForBit(t *testing.T) {
	t.Run(maxPlus.name, func(t *testing.T) { eachBody(t, &maxPlus, streamKernelsMatchGo[float32]) })
	t.Run(sumProduct.name, func(t *testing.T) { eachBody(t, &sumProduct, streamKernelsMatchGo[float64]) })
}

func streamKernelsMatchGo[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= maxLen; n++ {
		for lane := 0; lane < lanes[T](); lane++ {
			xlane := rng.Intn(lanes[T]())
			a1, a2 := k.operand(rng), k.operand(rng)
			what := fmt.Sprintf("n=%d lane=%d xlane=%d a=%v", n, lane, xlane, a1)

			p := newPair(k, 4, 4*n)
			y, wy := p.slice(rng, n, lane)
			x, wx := p.slice(rng, n, xlane)
			kern.Accum(y, x, a1)
			k.goLoops.Accum(wy, wx, a1)
			p.check(t, "accumulate "+what)

			d, wd := p.slice(rng, n, lane)
			kern.MulInto(d, x, a1)
			k.goLoops.MulInto(wd, wx, a1)
			p.check(t, "scalar-into "+what)

			// Uneven lengths: only the common prefix moves.
			if n > 0 {
				kern.Accum(y, x[:n-1], a2)
				k.goLoops.Accum(wy, wx[:n-1], a2)
				kern.Accum(y[:n/2], x, a1)
				k.goLoops.Accum(wy[:n/2], wx, a1)
				p.check(t, "accumulate, uneven "+what)
			}

		}
	}
}

// TestAccumEachMatchesGoBitForBit holds every body's pairing stream, in both
// algebras, to the Go loops: lengths 0…maxLen with y, x and w each at any
// lane, guard words on both ends of every slice, a y longer than x (only
// len(x) cells move), and every pair of specials as x and w — among them the
// sum-product's (1+2⁻³⁰)² against y = -(1+2⁻²⁹), which a fused body leaves at
// 2⁻⁶⁰ (TestSumProductRoundsTheProduct pins the Go loop itself). Max-plus ties
// — a candidate equal to y, as a zero of the other sign or the same value —
// must keep y's bits, as must a NaN on either side.
//
// A max-plus body's subtest is named after the body alone, a sum-product
// body's after the algebra and the body.
func TestAccumEachMatchesGoBitForBit(t *testing.T) {
	eachBody(t, &maxPlus, accumEachMatchesGo[float32])
	t.Run(sumProduct.name, func(t *testing.T) { eachBody(t, &sumProduct, accumEachMatchesGo[float64]) })
}

func accumEachMatchesGo[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= maxLen; n++ {
		for lane := 0; lane < lanes[T](); lane++ {
			what := fmt.Sprintf("n=%d lane=%d", n, lane)
			p := newPair(k, 3, 3*n+1)
			y, wy := p.slice(rng, n+1, lane)
			x, wx := p.slice(rng, n, rng.Intn(lanes[T]()))
			w, ww := p.slice(rng, n, rng.Intn(lanes[T]()))
			kern.AccumEach(y, x, w)
			k.goLoops.AccumEach(wy, wx, ww)
			p.check(t, "accum-each "+what)
		}
	}

	// Every special as x against every special as w, over every special as y.
	m := len(k.specials)
	p := newPair(k, 3, 3*m*m*m)
	y, wy := p.slice(rng, m*m*m, 1)
	x, wx := p.slice(rng, m*m*m, 2)
	w, ww := p.slice(rng, m*m*m, 3)
	for i := range y {
		y[i], x[i], w[i] = k.specials[i%m], k.specials[i/m%m], k.specials[i/(m*m)]
		wy[i], wx[i], ww[i] = y[i], x[i], w[i]
	}
	kern.AccumEach(y, x, w)
	k.goLoops.AccumEach(wy, wx, ww)
	p.check(t, "accum-each, specials")

	if _, ok := any(T(0)).(float32); !ok {
		return
	}
	// Ties: y = -0 against +0 + +0, y = +0 against -0 + -0, and y = v
	// against v + 0.
	negZero := T(math.Copysign(0, -1))
	for n := 0; n <= maxLen; n++ {
		what := fmt.Sprintf("n=%d", n)
		p := newPair(k, 3, 3*n)
		ty, wty := p.slice(rng, n, rng.Intn(lanes[T]()))
		tx, wtx := p.slice(rng, n, rng.Intn(lanes[T]()))
		tw, wtw := p.slice(rng, n, rng.Intn(lanes[T]()))
		for i := range ty {
			v := [...]T{negZero, 0, T(rng.Intn(41) - 20)}[i%3]
			x := [...]T{0, negZero, v}[i%3]
			ty[i], wty[i], tx[i], wtx[i], tw[i], wtw[i] = v, v, x, x, x*0, x*0
		}
		kern.AccumEach(ty, tx, tw)
		k.goLoops.AccumEach(wty, wtx, wtw)
		p.check(t, "accum-each, ties "+what)
		for i := range ty {
			if want := [...]T{negZero, 0, wty[i]}[i%3]; bits(ty[i]) != bits(want) {
				t.Fatalf("accum-each, ties %s: y[%d] = %v, want y's own %v", what, i, ty[i], want)
			}
		}
	}
}

// TestMaxPlusOnlyKernelsMatchGoBitForBit covers the kernel with no
// sum-product body, the unrolled stream: the process's Accumulate8 against
// its Go loop, and that loop — what every portable build's fill runs —
// against the plain AccumulateGo oracle.
func TestMaxPlusOnlyKernelsMatchGoBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= maxLen; n++ {
		for lane := 0; lane < 8; lane++ {
			a := maxPlus.operand(rng)
			what := fmt.Sprintf("n=%d lane=%d a=%v", n, lane, a)
			p := newPair(&maxPlus, 2, 2*n)
			y, wy := p.slice(rng, n, lane)
			x, wx := p.slice(rng, n, rng.Intn(8))
			Accumulate8(y, x, a)
			Accumulate8Go(wy, wx, a)
			p.check(t, "Accumulate8 "+what)
			Accumulate8Go(y, x, a)
			AccumulateGo(wy, wx, a)
			p.check(t, "Accumulate8Go vs AccumulateGo "+what)
		}
	}
}

// TestSumProductRoundsTheProduct: ⊗ then ⊕ is two roundings in every body on
// every build. With a = x = 1+2⁻³⁰ the exact product 1+2⁻²⁹+2⁻⁶⁰ rounds to
// 1+2⁻²⁹, so y = -(1+2⁻²⁹) must come out 0; a fused multiply-add leaves 2⁻⁶⁰.
// Run under GOAMD64=v3 (ci.sh test) this is the standing check that the
// compiler has not fused the portable loops.
func TestSumProductRoundsTheProduct(t *testing.T) {
	const n = 11
	off, size := rowOffsets(n, false)
	a, b := make([]float64, n), make([]float64, size)
	for i := range a {
		a[i] = 1 + 0x1p-30
	}
	for i := range b {
		b[i] = 1 + 0x1p-30
	}
	pre := Pre[float64]{X1: a, X2: make([]float64, n), A1: a[0], C0: n - 1}
	fresh := func() []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = -(1 + 0x1p-29)
		}
		return y
	}
	type run struct {
		name string
		from int // the first element the kernel updates
		run  func(y []float64)
	}
	runs := []run{
		{"SumProductGo", 0, func(y []float64) { SumProductGo(y, b[:n], a[0]) }},
		// The one stream k2 = n-2 reaches y[n-1] only.
		{"SumProductSweepGo", n - 1, func(y []float64) { SumProductSweepGo(y, a, b, off, n-2, n-1, 0, n, Pre[float64]{}) }},
		{"SumProductEachGo", 0, func(y []float64) { SumProductEachGo(y, a, b[:n]) }},
		// The pre-streams alone on y[n-1]: (1+2⁻³⁰)², then + 0·0.
		{"SumProductSweepGo, pre-streams", n - 1, func(y []float64) { SumProductSweepGo(y, a, b, off, n-1, n-1, 0, n, pre) }},
	}
	for _, impl := range Impls() {
		body := BodyOf[float64](impl)
		runs = append(runs,
			run{impl + " Accum", 0, func(y []float64) { body.Accum(y, b[:n], a[0]) }},
			run{impl + " Sweep", n - 1, func(y []float64) { body.Sweep(y, a, b, off, n-2, n-1, 0, n, Pre[float64]{}) }},
			run{impl + " AccumEach", 0, func(y []float64) { body.AccumEach(y, a, b[:n]) }},
			run{impl + " Sweep, pre-streams", n - 1, func(y []float64) { body.Sweep(y, a, b, off, n-1, n-1, 0, n, pre) }})
	}
	for _, c := range runs {
		y := fresh()
		c.run(y)
		for i := c.from; i < n; i++ {
			if y[i] != 0 {
				t.Fatalf("%s: y[%d] = %g, want 0: the product was not rounded before the add", c.name, i, y[i])
			}
		}
	}
}

// rowOffsets returns off with cell (r, j) of an n-row triangle at off[r]+j,
// for the bounding-box map and the packed map, and the block's size.
func rowOffsets(n int, packed bool) (off []int, size int) {
	off = make([]int, n)
	for r := range off {
		if packed {
			off[r] = r*n - r*(r-1)/2 - r
		} else {
			off[r] = r * n
		}
	}
	if packed {
		return off, n * (n + 1) / 2
	}
	return off, n * n
}

func TestSweepMatchesGoBitForBit(t *testing.T) {
	t.Run(maxPlus.name, func(t *testing.T) { eachBody(t, &maxPlus, sweepMatchesGo[float32]) })
	t.Run(sumProduct.name, func(t *testing.T) { eachBody(t, &sumProduct, sweepMatchesGo[float64]) })
}

// sweepMatchesGo runs the sweep over every lane of the 256-byte block its y
// can start at, so that streams start, end and cross block edges everywhere a
// row can put them: row ends on and off a block edge, k2 ranges from one
// stream to a diagonal that spans two blocks, every left column bound, and
// pre-streams from columns left of k0 — among them c0 = k0 on the last lane of
// a block, one block left of the first k2 stream, and k0 = k1, the
// pre-streams alone.
func sweepMatchesGo[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= maxLen; n++ {
		for lane := 0; lane < blockLanes[T](); lane++ {
			for _, packed := range []bool{false, true} {
				off, size := rowOffsets(n, packed)
				what := fmt.Sprintf("n=%d lane=%d packed=%v", n, lane, packed)

				// R0's shape: y is a row of another block, with R4 and R3 from
				// two more.
				p := newPair(k, 6, 2*size+4*n)
				b, wb := p.slice(rng, size, rng.Intn(blockLanes[T]()))
				a, wa := p.slice(rng, n, rng.Intn(blockLanes[T]()))
				x1, wx1 := p.slice(rng, n, rng.Intn(blockLanes[T]()))
				x2, wx2 := p.slice(rng, n, rng.Intn(blockLanes[T]()))
				a1, a2 := k.operand(rng), k.operand(rng)
				pre := func(c0 int) (got, want Pre[T]) {
					return Pre[T]{x1, x2, a1, a2, c0}, Pre[T]{wx1, wx2, a1, a2, c0}
				}
				y, wy := p.slice(rng, n, lane)
				kern.Sweep(y, a, b, off, 0, n-1, 0, n, Pre[T]{})
				k.goLoops.Sweep(wy, wa, wb, off, 0, n-1, 0, n, Pre[T]{})
				p.check(t, "sweep, whole row, "+what)
				// c0 = k0 on the last grid lane of y's first block (BLANES-1 at
				// lane 0): the k2 streams start a block to the right.
				k0 := (2*blockLanes[T]() - 1 - lane) % blockLanes[T]() % n
				k1 := k0 + rng.Intn(n-k0)
				got, want := pre(k0)
				kern.Sweep(y, a, b, off, k0, k1, 0, n, got)
				k.goLoops.Sweep(wy, wa, wb, off, k0, k1, 0, n, want)
				p.check(t, fmt.Sprintf("sweep, pre-streams from column k0 = %d, k1 = %d, %s", k0, k1, what))
				for from := 0; from < n; from++ {
					k0 := rng.Intn(n)
					k1 := k0 + rng.Intn(n-k0)
					// Half the sweeps that may carry pre-streams do, from a
					// column in [from, k0].
					got, want := Pre[T]{}, Pre[T]{}
					if k0 >= from && rng.Intn(2) == 0 {
						got, want = pre(from + rng.Intn(k0-from+1))
					}
					kern.Sweep(y, a, b, off, k0, k1, from, n, got)
					k.goLoops.Sweep(wy, wa, wb, off, k0, k1, from, n, want)
					p.check(t, fmt.Sprintf("sweep, k2 in [%d,%d) from column %d, pre-streams from %d, %s", k0, k1, from, got.C0, what))

					// R2's shape: a is y itself, the cells [k0, from) final in
					// memory while the lanes from `from` up are in registers.
					k0 = rng.Intn(from + 1)
					kern.Sweep(y, y, b, off, k0, from, from, n, Pre[T]{})
					k.goLoops.Sweep(wy, wy, wb, off, k0, from, from, n, Pre[T]{})
					p.check(t, fmt.Sprintf("sweep, a = y, k2 in [%d,%d) from column %d, %s", k0, from, from, what))
				}

				// R1's shape: y is row i2 of b itself, reading the rows below
				// it; every other row also with pre-streams from i2, as R0's
				// rows of a block take them, k0 = k1 on the last row. On the
				// packed map the cells either side of y[i2:n] are the
				// neighbouring rows' cells.
				blk, wblk := p.slice(rng, size, lane)
				for i2 := n - 1; i2 >= 0; i2-- {
					got, want := Pre[T]{}, Pre[T]{}
					if i2%2 == (n-1)%2 {
						got, want = pre(i2)
					}
					kern.Sweep(blk[off[i2]:off[i2]+n], a, blk, off, i2, n-1, 0, n, got)
					k.goLoops.Sweep(wblk[off[i2]:off[i2]+n], wa, wblk, off, i2, n-1, 0, n, want)
				}
				p.check(t, "sweep, in place, "+what)
			}
		}
	}
}

func TestSweepRejectsRowsOutsideTheBlock(t *testing.T) {
	t.Run(maxPlus.name, func(t *testing.T) { eachBody(t, &maxPlus, sweepRejectsRowsOutsideTheBlock[float32]) })
	t.Run(sumProduct.name, func(t *testing.T) { eachBody(t, &sumProduct, sweepRejectsRowsOutsideTheBlock[float64]) })
}

// sweepRejectsRowsOutsideTheBlock: the checks sit ahead of the choice of body,
// so every build refuses with the same words, not the runtime's.
func sweepRejectsRowsOutsideTheBlock[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	const n = 12
	off, size := rowOffsets(n, false)
	y, a, b := make([]T, n), make([]T, n), make([]T, size)
	for _, c := range []struct {
		name string
		want string // what follows the sweep's name in the panic
		run  func()
	}{
		{"row past the block", "row 11 ", func() { kern.Sweep(y, a, b[:size-1:size-1], off, 0, n-1, 0, n, Pre[T]{}) }},
		{"row before the block", "row 3 ", func() {
			bad := append([]int(nil), off...)
			bad[3] = -5
			kern.Sweep(y, a, b, bad, 0, n-1, 0, n, Pre[T]{})
		}},
		{"short y", "k2 range ", func() { kern.Sweep(y[:n-1:n-1], a, b, off, 0, n-1, 0, n, Pre[T]{}) }},
		{"short a", "k2 range ", func() { kern.Sweep(y, a[:3:3], b, off, 0, n-1, 0, n, Pre[T]{}) }},
		{"negative k0", "k2 range ", func() { kern.Sweep(y, a, b, off, -1, n-1, 0, n, Pre[T]{}) }},
		{"negative from", "k2 range [0,11) from column -1 ", func() { kern.Sweep(y, a, b, off, 0, n-1, -1, n, Pre[T]{}) }},
		{"from past the row", "k2 range [0,11) from column 12 ", func() { kern.Sweep(y, a, b, off, 0, n-1, n, n, Pre[T]{}) }},
		{"k0 past k1", "k2 range [5,4) ", func() { kern.Sweep(y, a, b, off, 5, 4, 0, n, Pre[T]{a, a, 1, 1, 5}) }},
		{"pre-streams right of k0", "k2 range [5,9) from column 0 to column 12 outside y[:12], a[:12], off[:12], or pre-streams from column 6 outside it or X1[:12], X2[:12]",
			func() { kern.Sweep(y, a, b, off, 5, 9, 0, n, Pre[T]{a, a, 1, 1, 6}) }},
		{"pre-streams left of from", "k2 range [5,9) from column 3 to column 12 outside y[:12], a[:12], off[:12], or pre-streams from column 2 ",
			func() { kern.Sweep(y, a, b, off, 5, 9, 3, n, Pre[T]{a, a, 1, 1, 2}) }},
		{"short pre-stream", "k2 range [0,9) from column 0 to column 12 outside y[:12], a[:12], off[:12], or pre-streams from column 0 outside it or X1[:12], X2[:11]",
			func() { kern.Sweep(y, a, b, off, 0, 9, 0, n, Pre[T]{a, a[:n-1], 1, 1, 0}) }},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.HasPrefix(msg, k.sweepPanic+c.want) {
					t.Errorf("%s: the sweep panicked with %v, want a panic starting %q", c.name, r, k.sweepPanic+c.want)
				}
			}()
			c.run()
		}()
	}
}

// A row outside b anywhere in the k2 range: the streams before it run, then
// the panic names it. Rows that touch b's first or last element are inside.
// (The vector body checks rows four a step; the ranges below put the row in
// every lane of a whole and of a partial step.)
func TestSweepRunsTheStreamsBeforeABadRow(t *testing.T) {
	t.Run(maxPlus.name, func(t *testing.T) { eachBody(t, &maxPlus, sweepRunsTheStreamsBeforeABadRow[float32]) })
	t.Run(sumProduct.name, func(t *testing.T) { eachBody(t, &sumProduct, sweepRunsTheStreamsBeforeABadRow[float64]) })
}

func sweepRunsTheStreamsBeforeABadRow[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	const n, room = 20, 3 // every row may start at b[0] and end at b[n+room]
	rng := rand.New(rand.NewSource(29))
	for k0 := 0; k0 < 5; k0++ {
		for k1 := k0 + 1; k1 < k0+11; k1++ {
			for _, from := range []int{0, k0 + 2, k1, n - 1} {
				for row := k0; row < k1; row++ {
					lo := max(row+1, from)
					for _, c := range []struct {
						off int
						bad bool
					}{{-lo, false}, {-lo - 1, true}, {room, false}, {room + 1, true}} {
						what := fmt.Sprintf("k2 in [%d,%d) from column %d, row %d at offset %d", k0, k1, from, row+1, c.off)
						off := make([]int, n)
						off[row+1] = c.off
						p := newPair(k, 4, 4*n+room)
						b, wb := p.slice(rng, n+room, 5)
						a, wa := p.slice(rng, n, 9)
						y, wy := p.slice(rng, n, 3)
						// Pre-streams, where they may run: a body that turns
						// the sweep down must not have applied them either.
						var pre, wpre Pre[T]
						if from <= k0 {
							x, wx := p.slice(rng, n, 6)
							pre, wpre = Pre[T]{x, a, 2, 3, from}, Pre[T]{wx, wa, 2, 3, from}
						}
						end := k1
						if c.bad {
							end = row
						}
						func() {
							defer func() {
								msg, _ := recover().(string)
								want := fmt.Sprintf("%srow %d at offset %d ", k.sweepPanic, row+1, c.off)
								if c.bad && !strings.HasPrefix(msg, want) || !c.bad && msg != "" {
									t.Fatalf("%s: the sweep panicked with %q, bad row: %v", what, msg, c.bad)
								}
							}()
							kern.Sweep(y, a, b, off, k0, k1, from, n, pre)
						}()
						k.goLoops.Sweep(wy, wa, wb, off, k0, end, from, n, wpre)
						p.check(t, what)
					}
				}
			}
		}
	}
}

// BenchmarkSweep times a whole-row sweep on every body this process can run:
// `go test -bench Sweep ./internal/maxplus` gives the ratio between them.
func BenchmarkSweep(b *testing.B) {
	b.Run(maxPlus.name, func(b *testing.B) { benchmarkSweep(b, &maxPlus) })
	b.Run(sumProduct.name, func(b *testing.B) { benchmarkSweep(b, &sumProduct) })
}

func benchmarkSweep[T elem](b *testing.B, k *algebra[T]) {
	for _, impl := range Impls() {
		sweep := BodyOf[T](impl).Sweep
		for _, n := range []int{32, 128, 512} {
			b.Run(fmt.Sprintf("%s/%d", impl, n), func(b *testing.B) {
				off, size := rowOffsets(n, false)
				y, a, blk := make([]T, n), make([]T, n), make([]T, size)
				b.SetBytes(int64(n * (n - 1) / 2 * int(unsafe.Sizeof(y[0]))))
				for i := 0; i < b.N; i++ {
					sweep(y, a, blk, off, 0, n-1, 0, n, Pre[T]{})
				}
			})
		}
	}
}

// The tests above cannot see a kernel store a lane outside its stream when
// it stores the value it loaded earlier in the call: the bits do not change.
// (-race cannot either: it does not instrument assembly.) Such a store is
// still a lost update when the lane is another row's cell and another
// goroutine is writing it, as in the row-parallel schedules on the packed and
// band maps, where the cells either side of y[k2+1:n] are the neighbouring
// rows' tails.

// counter is *cell seen as the integer word its writer counts upwards in.
type counter[T elem] struct{ cell *T }

func (c counter[T]) load() uint64 {
	if unsafe.Sizeof(*c.cell) == 4 {
		return uint64(atomic.LoadUint32((*uint32)(unsafe.Pointer(c.cell))))
	}
	return atomic.LoadUint64((*uint64)(unsafe.Pointer(c.cell)))
}

func (c counter[T]) store(v uint64) {
	if unsafe.Sizeof(*c.cell) == 4 {
		atomic.StoreUint32((*uint32)(unsafe.Pointer(c.cell)), uint32(v))
		return
	}
	atomic.StoreUint64((*uint64)(unsafe.Pointer(c.cell)), v)
}

// ownedBySomeoneElse runs kernel over and over on one goroutine while this
// one counts the word at *cell upwards, and fails if a count it stored is
// ever replaced by an older one.
func ownedBySomeoneElse[T elem](t *testing.T, what string, cell *T, kernel func()) {
	t.Helper()
	const budget = 5 * time.Millisecond
	word := counter[T]{cell}
	var stop atomic.Bool
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for !stop.Load() {
			kernel()
		}
	}()
	defer func() {
		stop.Store(true)
		<-stopped
	}()
	var count uint64
	word.store(count)
	for end := time.Now().Add(budget); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			if got := word.load(); got != count {
				t.Fatalf("%s: a word outside the stream went from %d back to %d while the kernel ran: it stores lanes it does not own",
					what, count, got)
			}
			count++
			word.store(count)
		}
	}
}

func TestKernelsLeaveNeighbouringCellsToTheirWriter(t *testing.T) {
	// The writer and the kernel must be able to interleave inside one call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	t.Run(maxPlus.name, func(t *testing.T) { eachBody(t, &maxPlus, kernelsLeaveNeighbouringCells[float32]) })
	t.Run(sumProduct.name, func(t *testing.T) { eachBody(t, &sumProduct, kernelsLeaveNeighbouringCells[float64]) })
}

// kernelsLeaveNeighbouringCells runs k's kernels on abutting packed rows.
func kernelsLeaveNeighbouringCells[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	for lane := 0; lane < blockLanes[T](); lane++ {
		// A row that ends inside a block, and one that ends on a block's edge.
		sweepLeavesNeighbouringCells(t, k, kern, lane, 29)
		sweepLeavesNeighbouringCells(t, k, kern, lane, 2*blockLanes[T]()-lane)
	}

	for _, lane := range []int{0, 1, lanes[T]() - 1} {
		for _, w := range []int{5, 2*lanes[T]() - 3, 2*lanes[T]() + 3} {
			productLeavesNeighbouringCells(t, k, kern, lane, w)
		}
	}

	const n = 29
	for lane := 0; lane < lanes[T](); lane++ {
		ar := newArena(arenaRoom(2, 2*n), k.guardWord)
		x := ar.slice(n, 3)
		lo := ar.next + guard + lane // where the next slice starts
		y := ar.slice(n, lane)
		before, after := &ar.buf[lo-1], &ar.buf[lo+n]
		m := min(3, lanes[T]()-lane) // y[:m] lies in one chunk
		type kernel struct {
			name string
			run  func()
		}
		kernels := []kernel{
			{"accumulate", func() { kern.Accum(y, x, 1) }},
			{"scalar-into", func() { kern.MulInto(y, x, 1) }},
			{"accum-each", func() { kern.AccumEach(y, x, x) }},
		}
		if kern.R2 != nil {
			star, live := any(r2Star(rand.New(rand.NewSource(1)), n, n, "mixed")).([]T), make([]uint64, 1)
			kernels = append(kernels, kernel{"r2", func() { kern.R2(y, star, n, 0, n, live) }})
			mid := func() { kern.R2(y, star, n, 5, n, live) }
			ownedBySomeoneElse(t, fmt.Sprintf("r2 lane=%d from column 5, the word before y[5]", lane), &y[4], mid)
		}
		for _, c := range kernels {
			what := fmt.Sprintf("%s lane=%d", c.name, lane)
			ownedBySomeoneElse(t, what+", the word before y[0]", before, c.run)
			ownedBySomeoneElse(t, what+", the word after y[n-1]", after, c.run)
		}
		short := func() { kern.Accum(y[:m], x, 1) }
		ownedBySomeoneElse(t, fmt.Sprintf("accumulate lane=%d n=%d, the word before y[0]", lane, m), before, short)
		ownedBySomeoneElse(t, fmt.Sprintf("accumulate lane=%d n=%d, the word after it", lane, m), &y[m], short)
	}

	if kern.Live != nil {
		// Live stores whole words of live: the words either side of those
		// holding [lo, hi) are other rows' to write, in the substrate's
		// wavefronts. Of y it stores the columns [lo, hi) alone, though pre
		// beats y on every column.
		ar := newArena(arenaRoom(2, 512), k.guardWord)
		pre, y, words := ar.slice(256, 0), ar.slice(256, 3), make([]uint64, 4)
		for j := range pre {
			pre[j] = 1
		}
		for _, c := range [][2]int{{64, 128}, {69, 90}, {100, 140}} {
			run := func() { kern.Live(y, pre, c[0], c[1], words) }
			what := fmt.Sprintf("live columns [%d,%d)", c[0], c[1])
			ownedBySomeoneElse(t, what+", the word before", (*float64)(unsafe.Pointer(&words[c[0]>>6-1])), run)
			ownedBySomeoneElse(t, what+", the word after", (*float64)(unsafe.Pointer(&words[(c[1]-1)>>6+1])), run)
			ownedBySomeoneElse(t, what+", y[lo-1]", &y[c[0]-1], run)
			ownedBySomeoneElse(t, what+", y[hi]", &y[c[1]], run)
		}
	}
}

// sweepLeavesNeighbouringCells: the sweep stores whole blocks, but for the
// lanes of the first block left of the first stream — the first k2 stream, or
// the pre-streams from c0 — and those of the last block from y[n] on. On the
// packed map the word before y[c0] is the row above's last cell, in the same
// 256-byte block.
func sweepLeavesNeighbouringCells[T elem](t *testing.T, k *algebra[T], kern Body[T], lane, n int) {
	off, size := rowOffsets(n, true)
	ar := newArena(arenaRoom(5, size+4*n), k.guardWord)
	b, a := ar.slice(size, 3), ar.slice(n, 1)
	x1, x2 := ar.slice(n, 5), ar.slice(n, 7)
	lo := ar.next + guard + lane // where the next slice starts
	y := ar.slice(n, lane)
	before, after := &ar.buf[lo-1], &ar.buf[lo+n]
	what := fmt.Sprintf("sweep lane=%d n=%d", lane, n)
	pre := func(c0 int) Pre[T] { return Pre[T]{x1, x2, 1, 2, c0} }

	whole := func() { kern.Sweep(y, a, b, off, 0, n-1, 0, n, Pre[T]{}) }
	ownedBySomeoneElse(t, what+", whole row, the word before y[0]", before, whole)
	ownedBySomeoneElse(t, what+", whole row, y[0]", &y[0], whole)
	ownedBySomeoneElse(t, what+", whole row, the word after y[n-1]", after, whole)
	wholePre := func() { kern.Sweep(y, a, b, off, 0, n-1, 0, n, pre(0)) }
	ownedBySomeoneElse(t, what+", whole row and pre-streams, the word before y[0]", before, wholePre)

	// One stream into y[n-1]: the first block is the last, and everything in
	// it but one lane is someone else's. So with the pre-streams alone on it.
	last := func() { kern.Sweep(y, a, b, off, n-2, n-1, 0, n, Pre[T]{}) }
	ownedBySomeoneElse(t, what+", last stream, the word before y[n-1]", &y[n-2], last)
	ownedBySomeoneElse(t, what+", last stream, the word before y[0]", before, last)
	ownedBySomeoneElse(t, what+", last stream, the word after y[n-1]", after, last)
	preOnly := func() { kern.Sweep(y, a, b, off, n-1, n-1, 0, n, pre(n-1)) }
	ownedBySomeoneElse(t, what+", pre-streams alone, the word before y[n-1]", &y[n-2], preOnly)
	ownedBySomeoneElse(t, what+", pre-streams alone, the word after y[n-1]", after, preOnly)

	// Streams that start in the middle of a block, at k0+1 and at `from`, and
	// pre-streams from c0 = k0 on a block's last lane, the k2 streams a block
	// right.
	mid := n / 2
	tail := func() { kern.Sweep(y, a, b, off, mid, n-1, 0, n, Pre[T]{}) }
	ownedBySomeoneElse(t, what+", k0 mid-row, the word before y[k0+1]", &y[mid], tail)
	if c0 := blockLanes[T]() - 1 - lane; c0 > 0 && c0 < n-1 {
		edge := func() { kern.Sweep(y, a, b, off, c0, n-1, 0, n, pre(c0)) }
		ownedBySomeoneElse(t, what+", pre-streams from a block's last lane, the word before y[c0]", &y[c0-1], edge)
	}
	bound := func() { kern.Sweep(y, y, b, off, mid/2, mid, mid, n, Pre[T]{}) }
	ownedBySomeoneElse(t, what+", a = y from mid-row, the word before y[from]", &y[mid-1], bound)
	ownedBySomeoneElse(t, what+", a = y from mid-row, the word after y[n-1]", after, bound)
}

// productLeavesNeighbouringCells: a product stores rows of c under its
// column masks, and the cells between them, and before c[0], are someone
// else's. diag = lanes/2 with k = 9 sends the last splits of some pair on
// every body to the second vector alone, so its stores come after a phase of
// the split loop that skips the first.
func productLeavesNeighbouringCells[T elem](t *testing.T, k *algebra[T], kern Body[T], lane, w int) {
	const m, splits = 5, 9
	ldc := w + 1
	ar := newArena(arenaRoom(5, 3*m*ldc+m*splits+splits*ldc), k.guardWord)
	a, b := ar.slice(m*splits, 1), ar.slice(splits*ldc, 2)
	x1, x2 := ar.slice(m*ldc, 3), ar.slice(m*ldc, 4)
	lo := ar.next + guard + lane // where c starts
	c := ar.slice(m*ldc, lane)
	for _, live := range [][]uint64{nil, {0b101101101, 0b110110110}} {
		run := func() {
			kern.Product(c, ldc, a, splits, b, ldc, m, w, splits, lanes[T]()/2, Pre[T]{X1: x1, X2: x2, A1: 1, A2: 2}, live)
		}
		what := fmt.Sprintf("product lane=%d w=%d live=%v", lane, w, live)
		ownedBySomeoneElse(t, what+", the word before c[0]", &ar.buf[lo-1], run)
		ownedBySomeoneElse(t, what+", the word after row 0", &c[w], run)
		ownedBySomeoneElse(t, what+", the word after the last row", &c[(m-1)*ldc+w], run)
	}
}

// TestProductMatchesGoBitForBit holds every body's products, in both
// algebras, to the Go loops: every m in 0…9 (whole tiles of four rows and
// every leftover), every w in 0…maxLen (whole pairs of vectors and every
// column tail), every k in 0…17, with and without pre-streams (k = 0 with
// them is the pre-streams alone), c's first cell at any lane, padded strides
// with guard words between the rows of c (and of a, b, x1 and x2), so that a
// store outside a row of c shows. Half the cases skip nothing (diag far left)
// and draw their operands from the specials — NaN, ±Inf, the forbidden
// sentinel -1e30, signed zeros — a third of the time; the other half take
// diag in [-40, 40] with ⊕'s identity in b below it, and ordinary c and a,
// whose candidates through that identity leave c as it was, as the fills'
// cells do (docs/ALGORITHM.md §9). Every case draws its live bit-sets
// (liveSets): none, random, empty, full, one bit a tile, or bits 63-65, with
// garbage past bit k and, at times, a guard word between the tiles' sets; k
// in 60…130 takes the bits across words.
func TestProductMatchesGoBitForBit(t *testing.T) {
	for _, impl := range testBodies() {
		t.Run(impl, func(t *testing.T) {
			productMatchesGo(t, &maxPlus, BodyOf[float32](impl))
			productMatchesGo(t, &sumProduct, BodyOf[float64](impl))
		})
	}
}

func productMatchesGo[T elem](t *testing.T, k *algebra[T], kern Body[T]) {
	rng := rand.New(rand.NewSource(40))
	lane := func() int { return rng.Intn(lanes[T]()) }
	one := func(m, w, splits int) {
		ldc, lda, ldb := w+rng.Intn(3), splits+rng.Intn(3), w+rng.Intn(3)
		p := newPair(k, 5, 3*m*ldc+m*lda+splits*ldb)
		c, wc := p.slice(rng, m*ldc, lane())
		a, wa := p.slice(rng, m*lda, lane())
		b, wb := p.slice(rng, splits*ldb, lane())
		var pre, wpre Pre[T]
		if rng.Intn(2) == 0 {
			pre.X1, wpre.X1 = p.slice(rng, m*ldc, lane())
			pre.X2, wpre.X2 = p.slice(rng, m*ldc, lane())
			pre.A1, pre.A2 = k.operand(rng), k.operand(rng)
			wpre.A1, wpre.A2 = pre.A1, pre.A2
		}
		diag := math.MinInt32
		if rng.Intn(2) == 0 {
			diag = rng.Intn(81) - 40
			for _, x := range [][2][]T{{c, wc}, {a, wa}} {
				for i := range x[0] {
					x[0][i] = k.ordinary(rng)
					x[1][i] = x[0][i]
				}
			}
			for s := 0; s < splits; s++ {
				for j := 0; j < min(w, s+diag); j++ {
					b[s*ldb+j], wb[s*ldb+j] = k.zero, k.zero
				}
			}
		}
		padWith(c, ldc, w, k.guardWord)
		padWith(wc, ldc, w, k.guardWord)
		live, mode := liveSets(rng, m, splits)
		kern.Product(c, ldc, a, lda, b, ldb, m, w, splits, diag, pre, live)
		k.goLoops.Product(wc, ldc, wa, lda, wb, ldb, m, w, splits, diag, wpre, live)
		p.check(t, fmt.Sprintf("%s m=%d w=%d k=%d diag=%d pre=%v live=%s ldc=%d lda=%d ldb=%d", k.name, m, w, splits, diag, pre.X1 != nil, mode, ldc, lda, ldb))
	}
	for m := 0; m <= 9; m++ {
		for w := 0; w <= maxLen; w++ {
			for splits := 0; splits <= 17; splits++ {
				one(m, w, splits)
			}
		}
	}
	for m := 1; m <= 9; m++ {
		for _, w := range []int{1, 2*lanes[T]() - 1, 2 * lanes[T](), 2*lanes[T]() + 5} {
			for _, splits := range []int{60, 63, 64, 65, 66, 127, 128, 130} {
				for range 4 {
					one(m, w, splits)
				}
			}
		}
	}
}

// liveSets draws a product's live bit-sets for m rows and k splits, and
// names the draw: nil, or one set a kernel tile, a word or two past the
// ⌈k/64⌉ the product reads (a guard word), with random bits past k.
func liveSets(rng *rand.Rand, m, k int) ([]uint64, string) {
	mode := [...]string{"nil", "random", "empty", "full", "one bit", "bits 63-65"}[rng.Intn(6)]
	if mode == "nil" || m == 0 {
		return nil, mode
	}
	stride := (k+63)/64 + rng.Intn(2)
	live := make([]uint64, ProductTiles(m)*stride)
	for i := range live {
		live[i] = rng.Uint64()
	}
	for t := range ProductTiles(m) {
		set := live[t*stride:]
		density := rng.Intn(65)
		for s := 0; s < k; s++ {
			on := false
			switch mode {
			case "random":
				on = rng.Intn(64) < density
			case "full":
				on = true
			case "bits 63-65":
				on = s >= 63 && s <= 65
			}
			set[s>>6] &^= 1 << (s & 63)
			if on {
				set[s>>6] |= 1 << (s & 63)
			}
		}
		if mode == "one bit" && k > 0 {
			s := rng.Intn(k)
			set[s>>6] |= 1 << (s & 63)
		}
	}
	return live, mode
}

// r2Star returns an n-row star at pitch lds, closed — star[i][j] >=
// star[i][k] + star[k+1][j] for i <= k < j, as S² is — and NaN left of its
// diagonal, which R2 never reads: -1 on and right of the diagonal for "all
// live", else the closure of integers in [-3, 1], in [0, 5] for "none live".
func r2Star(rng *rand.Rand, n, lds int, mode string) []float32 {
	star := make([]float32, n*lds)
	for i := range star {
		star[i] = float32(math.NaN())
	}
	for d := range n {
		for i := 0; i+d < n; i++ {
			j, v := i+d, float32(rng.Intn(5)-3)
			switch mode {
			case "all live":
				v = -1
			case "none live":
				v = float32(rng.Intn(6))
			}
			for k := i; k < j && mode != "all live"; k++ {
				v = max(v, star[i*lds+k]+star[(k+1)*lds+j])
			}
			star[i*lds+j] = v
		}
	}
	return star
}

// r2Row fills c[k0:n] for a mode of r2Star's: 5s for "all live"; 1000 at k0
// for "none live"; else j/2 plus a small integer at column j, which gives
// "mixed" about a fifth of its columns live, one column in four set to R2's
// own value there (a tie, not live).
func r2Row(rng *rand.Rand, c, star []float32, lds, k0, n int, mode string) {
	for j := k0; j < n; j++ {
		switch c[j] = float32(j/2 + rng.Intn(8)); {
		case mode == "all live":
			c[j] = 5
		case mode == "none live" && j == k0:
			c[j] = 1000
		case mode == "mixed" && rng.Intn(4) == 0:
			y := float32(zero)
			for k := k0; k < j; k++ {
				y = max(y, c[k]+star[(k+1)*lds+j])
			}
			if y > zero {
				c[j] = y
			}
		}
	}
}

// r2Dense is R2 as the fill took it before the fused kernel: every split,
// SweepGo into a row of Zero, then the merge's loop — c[j] = c[j] ⊕ y[j], c
// on a tie, bit j where c[j] beat y[j].
func r2Dense(c, star []float32, lds, k0, n int, live []uint64) {
	y, off := make([]float32, n), make([]int, n)
	for j := range y {
		y[j], off[j] = zero, j*lds
	}
	if n-k0 >= 2 {
		SweepGo(y, c, star, off, k0, n-1, 0, n, Pre[float32]{})
	}
	clear(live[:(n+63)/64])
	for j := k0; j < n; j++ {
		switch {
		case c[j] > y[j]:
			live[j>>6] |= 1 << (j & 63)
		case y[j] > c[j]:
			c[j] = y[j]
		}
	}
}

// TestR2MatchesGoBitForBit holds the Go body of R2 to the dense sweep and
// merge, and every vector body to the Go body: rows of 0…200 columns from
// columns across the first two vectors and at the block edges, c at any
// lane of a vector (the row's start), the live
// share 0 (but the first column), mixed (about a fifth, ties included) and
// 100 %, with guard words around the row and around its live words. The
// columns left of k0 hold specials (NaN, ±Inf) that must neither be read nor
// written.
func TestR2MatchesGoBitForBit(t *testing.T) {
	for _, impl := range testBodies() {
		t.Run(impl, func(t *testing.T) { r2MatchesGo(t, impl) })
	}
}

// r2MatchesGo runs TestR2MatchesGoBitForBit's rows on one body; on "go" it
// holds the Go body to the dense sweep and merge alone.
func r2MatchesGo(t *testing.T, impl string) {
	const maxN, lds = 200, 203
	rng := rand.New(rand.NewSource(48))
	goR2, r2 := BodyOf[float32]("go").R2, BodyOf[float32](impl).R2
	for _, mode := range []string{"none live", "mixed", "all live"} {
		star := r2Star(rng, maxN, lds, mode)
		liveCols, cols := 0, 0
		for n := 0; n <= maxN; n++ {
			for _, k0 := range []int{0, 1, 2, 3, 5, 7, 8, 9, 14, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 127, 128, 129, n / 2, n - 1, n} {
				if k0 < 0 || k0 > n {
					continue
				}
				lane := (n + k0) % lanes[float32]()
				orig := make([]float32, n)
				for j := range orig {
					orig[j] = maxPlus.operand(rng)
				}
				r2Row(rng, orig, star, lds, k0, n, mode)
				words := (n + 63) / 64
				wantLive, goLive := make([]uint64, words+2), make([]uint64, words+2)
				for i := range wantLive {
					wantLive[i] = rng.Uint64()
				}
				copy(goLive, wantLive)
				want, goRow := append([]float32(nil), orig...), append([]float32(nil), orig...)
				r2Dense(want, star, lds, k0, n, wantLive[1:1+words])
				goR2(goRow, star, lds, k0, n, goLive[1:1+words])
				what := fmt.Sprintf("%s n=%d k0=%d lane=%d", mode, n, k0, lane)
				for j := range goRow {
					if bits(goRow[j]) != bits(want[j]) {
						t.Fatalf("go %s: c[%d] is %v, the dense sweep and merge leave %v", what, j, goRow[j], want[j])
					}
				}
				for i := range goLive {
					if goLive[i] != wantLive[i] {
						t.Fatalf("go %s: word %d of live and its guards is %#x, the dense merge leaves %#x", what, i, goLive[i], wantLive[i])
					}
				}
				for w, v := range wantLive[1 : 1+words] {
					for ; v != 0; v &= v - 1 {
						liveCols++
					}
					cols += min(64, n-64*w) - min(64, max(0, k0-64*w))
				}
				if impl == "go" {
					continue
				}
				p := newPair(&maxPlus, 1, n)
				got, ref := p.slice(rng, n, lane)
				copy(got, orig)
				copy(ref, goRow)
				gotLive := append([]uint64(nil), wantLive...)
				r2(got, star, lds, k0, n, gotLive[1:1+words])
				p.check(t, impl+" "+what)
				for i := range gotLive {
					if gotLive[i] != goLive[i] {
						t.Fatalf("%s %s: word %d of live and its guards is %#x, the Go body leaves %#x", impl, what, i, gotLive[i], goLive[i])
					}
				}
			}
		}
		t.Logf("%s: %d of %d columns live", mode, liveCols, cols)
	}
}

// TestR2RejectsBadArguments: every body panics, naming the columns and the
// lengths, where the columns leave c, the pitch is short of them, the star
// lacks a row a split reads or live lacks a word.
func TestR2RejectsBadArguments(t *testing.T) {
	const n = 20
	c, star, live := make([]float32, n), make([]float32, n*n), make([]uint64, 1)
	for _, impl := range Impls() {
		r2 := BodyOf[float32](impl).R2
		for _, bad := range []func(){
			func() { r2(c, star, n, -1, n, live) },
			func() { r2(c, star, n, 5, 4, live) },
			func() { r2(c, star, n, 0, n+1, live) },
			func() { r2(c, star, n-1, 0, n, live) },
			func() { r2(c, star[:(n-1)*n], n, 0, n, live) },
			func() { r2(c, star, n, 0, n, nil) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "maxplus: R2 columns") {
						t.Errorf("%s: R2 panicked with %q", impl, msg)
					}
				}()
				bad()
			}()
		}
	}
}

// TestLiveMatchesGoBitForBit holds every vector body of Live to the Go
// body, and the Go body to the rule cell by cell: rows of 0…200 columns at
// every lane of a vector, every start column, the end column at the start,
// one past it, the row's end and between; y and pre tied, pre above or below,
// specials (NaN, ±Inf, ±0) among them; the live words filled with random bits
// and a guard word either side, so a bit written outside [lo, hi) shows, and
// y's cells outside [lo, hi) left as they were.
func TestLiveMatchesGoBitForBit(t *testing.T) {
	for _, impl := range testBodies() {
		t.Run(impl, func(t *testing.T) {
			rng := rand.New(rand.NewSource(50))
			goLive, live := BodyOf[float32]("go").Live, BodyOf[float32](impl).Live
			set, cols := 0, 0
			for n := 0; n <= 200; n++ {
				lane := n % lanes[float32]()
				buf := make([]float32, 2*(n+lanes[float32]()))
				y0, pre := buf[lane:lane+n], buf[n+16+lane:2*n+16+lane]
				for j := range n {
					liveRow(rng, y0, pre, j)
				}
				words := (n + 63) / 64
				for lo := 0; lo <= n; lo++ {
					for _, hi := range []int{lo, lo + 1, n, lo + rng.Intn(n-lo+1)} {
						if hi > n {
							continue
						}
						init := make([]uint64, words+2)
						for i := range init {
							init[i] = rng.Uint64()
						}
						want, got := append([]uint64(nil), init...), append([]uint64(nil), init...)
						wantY, gotY := append([]float32(nil), y0...), append([]float32(nil), y0...)
						goLive(wantY, pre, lo, hi, want[1:1+words])
						what := fmt.Sprintf("n=%d lane=%d columns [%d,%d)", n, lane, lo, hi)
						for j := -64; j < 64*(words+1); j++ {
							bit := want[(j+64)>>6] >> ((j + 64) & 63) & 1
							wantBit := init[(j+64)>>6] >> ((j + 64) & 63) & 1
							y := at(y0, j)
							if j >= lo && j < hi {
								wantBit = 0
								if pre[j] > y0[j] {
									wantBit, y = 1, pre[j]
								}
								set += int(wantBit)
								cols++
							}
							if bit != wantBit || j >= 0 && j < n && math.Float32bits(wantY[j]) != math.Float32bits(y) {
								t.Fatalf("go %s: bit %d is %d and y %v, want %d and %v (y %v, pre %v)", what, j, bit, at(wantY, j), wantBit, y, at(y0, j), at(pre, j))
							}
						}
						live(y0, pre, lo, hi, got[1:1+words]) // y0 at its lane
						for j := range y0 {
							y0[j], gotY[j] = gotY[j], y0[j] // y0 as it was, gotY the result
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s %s: word %d of live and its guards is %#x, the Go body leaves %#x", impl, what, i, got[i], want[i])
							}
						}
						for j := range gotY {
							if math.Float32bits(gotY[j]) != math.Float32bits(wantY[j]) {
								t.Fatalf("%s %s: y[%d] is %v, the Go body leaves %v", impl, what, j, gotY[j], wantY[j])
							}
						}
					}
				}
			}
			t.Logf("%d of %d columns live", set, cols)
		})
	}
}

// liveRow draws column j of a Live row: y the split maximum, pre the seed ⊕
// the pair term — above it, tied or below — with specials and the Zero
// sentinel among them.
func liveRow(rng *rand.Rand, y, pre []float32, j int) {
	v := maxPlus.ordinary(rng)
	y[j], pre[j] = v, v+float32(1+rng.Intn(3))
	switch r := rng.Intn(10); {
	case r < 3:
		pre[j] = v // a tie: a split reaches the cell
	case r < 5:
		pre[j] = v - float32(1+rng.Intn(3)) // a split beats the seed
	case r < 6:
		y[j], pre[j] = maxPlus.specials[rng.Intn(len(maxPlus.specials))], maxPlus.specials[rng.Intn(len(maxPlus.specials))]
	case r < 7:
		y[j], pre[j] = float32(math.Copysign(0, -1)), 0 // ±0, equal
		if rng.Intn(2) == 0 {
			y[j], pre[j] = 0, float32(math.Copysign(0, -1))
		}
	case r < 8:
		y[j] = maxPlus.zero // no split reaches: the Zero sentinel
	}
}

// at is s[j], or NaN outside s.
func at(s []float32, j int) float32 {
	if j < 0 || j >= len(s) {
		return float32(math.NaN())
	}
	return s[j]
}

// TestLiveRejectsBadArguments: every body panics, naming the columns and
// the lengths, where the columns run backwards or leave y, pre or live.
func TestLiveRejectsBadArguments(t *testing.T) {
	const n = 70
	y, pre, live := make([]float32, n), make([]float32, n), make([]uint64, 2)
	for _, impl := range Impls() {
		f := BodyOf[float32](impl).Live
		for _, bad := range []func(){
			func() { f(y, pre, -1, n, live) },
			func() { f(y, pre, 5, 4, live) },
			func() { f(y[:n-1], pre, 0, n, live) },
			func() { f(y, pre[:n-1], 0, n, live) },
			func() { f(y, pre, 0, n, live[:1]) },
			func() { f(y, pre, 0, 1, nil) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "maxplus: Live columns") {
						t.Errorf("%s: Live panicked with %q", impl, msg)
					}
				}()
				bad()
			}()
		}
	}
}

// padWith writes guard into the cells of rows of width w, ld apart, past
// their last column: a store into them shows as a changed guard word.
func padWith[T elem](rows []T, ld, w int, guard T) {
	for i := range rows {
		if i%ld >= w {
			rows[i] = guard
		}
	}
}

// TestProductRejectsBadArguments: every argument that disagrees with the
// others panics with words that name it, on every body, in both algebras.
func TestProductRejectsBadArguments(t *testing.T) {
	for _, impl := range Impls() {
		productRejectsBadArguments(t, impl, BodyOf[float32](impl).Product)
		productRejectsBadArguments(t, impl+" sum-product", BodyOf[float64](impl).Product)
	}
}

func productRejectsBadArguments[T elem](t *testing.T, impl string, product func(c []T, ldc int, a []T, lda int, b []T, ldb int, m, w, k, diag int, pre Pre[T], live []uint64)) {
	const m, w, k = 5, 7, 3
	c, a, b, x := make([]T, m*w), make([]T, m*k), make([]T, k*w), make([]T, m*w)
	none := Pre[T]{}
	for _, tc := range []struct {
		want string
		run  func()
	}{
		{"m -1, w 7: a negative dimension", func() { product(c, w, a, k, b, w, -1, w, k, 0, none, nil) }},
		{"m 5, w -1: a negative dimension", func() { product(c, w, a, k, b, w, m, -1, k, 0, none, nil) }},
		{"m 5, k -1: a negative dimension", func() { product(c, w, a, k, b, w, m, w, -1, 0, none, nil) }},
		{"ldc 6 below w 7", func() { product(c, w-1, a, k, b, w, m, w, k, 0, none, nil) }},
		{"lda 2 below k 3", func() { product(c, w, a, k-1, b, w, m, w, k, 0, none, nil) }},
		{"ldb 6 below w 7", func() { product(c, w, a, k, b, w-1, m, w, k, 0, none, nil) }},
		{"c[:34] short of 5 rows of 7 at stride 7", func() { product(c[:m*w-1], w, a, k, b, w, m, w, k, 0, none, nil) }},
		{"a[:14] short of 5 rows of 3 at stride 3", func() { product(c, w, a[:m*k-1], k, b, w, m, w, k, 0, none, nil) }},
		{"b[:20] short of 3 rows of 7 at stride 7", func() { product(c, w, a, k, b[:k*w-1], w, m, w, k, 0, none, nil) }},
		{"c[:35] short of 5 rows of 7 at stride 8", func() { product(c, w+1, a, k, b, w, m, w, k, 0, none, nil) }},
		{"x1[:34] short of 5 rows of 7 at stride 7", func() { product(c, w, a, k, b, w, m, w, k, 0, Pre[T]{X1: x[:m*w-1], X2: x}, nil) }},
		{"x2[:0] short of 5 rows of 7 at stride 7", func() { product(c, w, a, k, b, w, m, w, 0, 0, Pre[T]{X1: x}, nil) }},
		{"pre-streams from column 2, not 0", func() { product(c, w, a, k, b, w, m, w, k, 0, Pre[T]{X1: x, X2: x, C0: 2}, nil) }},
		{"live[:1] short of 2 tiles of 3 splits", func() { product(c, w, a, k, b, w, m, w, k, 0, none, make([]uint64, 1)) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "maxplus: Product "+tc.want {
					t.Errorf("%s: Product panicked with %q, want %q", impl, msg, "maxplus: Product "+tc.want)
				}
			}()
			tc.run()
		}()
	}
}

// BenchmarkProduct times the block product on every body at the shapes its
// fills call it at, as one Product and as the row Sweeps it replaces (a = the
// row itself, every stream from the tile's first column): the closure fill's
// 64-row × 64-column tile taking k splits at the pitch of a 1024-nt table,
// and the interaction fill's R0 block at the pitch of a 128-column box — 8
// rows × 32 float32 columns, or 8 × 16 float64 ones for partition — dense
// (diag far left) or on the diagonal (diag = 1: split s reaches the columns
// from s+1 up, and the product skips the vectors left of them; diag = -63:
// the far column tile of k = 95 splits, whose last 32 reach part of it). The
// masked R0's rows draw 30 % of each kernel tile's splits live, about the
// share a 16×128 fold runs (TestMaskedSplitWork in internal/bpmax). `go test
// -bench Product ./internal/maxplus` reports useful-Gcell/s, the cell updates
// through a cell right of b's diagonal a second, one ⊗ and one ⊕ each, of the
// splits live: a skipped vector or split shows as a rate, not as work.
func BenchmarkProduct(b *testing.B) {
	const dense = math.MinInt32
	for _, sh := range []productShape{
		{"tile", 64, 64, 1088, 448, dense, 0}, {"tile", 64, 64, 1088, 896, dense, 0},
		{"r0", 8, 32, 128, 31, dense, 0}, {"r0", 8, 32, 128, 31, 1, 0}, {"r0", 8, 32, 128, 31, 1, 0.3},
		{"r0", 8, 32, 128, 64, dense, 0}, {"r0", 8, 32, 128, 95, dense, 0},
		{"r0", 8, 32, 128, 95, -63, 0}, {"r0", 8, 32, 128, 95, -63, 0.3},
	} {
		benchmarkProduct(b, &maxPlus, sh)
	}
	for _, sh := range []productShape{{"r0", 8, 16, 128, 15, dense, 0}, {"r0", 8, 16, 128, 15, 1, 0}, {"r0", 8, 16, 128, 63, dense, 0}} {
		benchmarkProduct(b, &sumProduct, sh)
	}
}

// productShape is a benchmark's product; live, unless 0, is the share of
// each kernel tile's splits its live bit-sets mark, the masked R0's shape.
type productShape struct {
	name                        string
	rows, width, pitch, k, diag int
	live                        float64
}

func benchmarkProduct[T elem](b *testing.B, k *algebra[T], sh productShape) {
	rows, width, pitch, splits := sh.rows, sh.width, sh.pitch, sh.k
	// The tile is rows [0, rows) × columns [k, k+width); its splits read
	// columns [0, k) of its rows and rows [1, k] below.
	data := make([]T, (splits+rows+1)*pitch)
	for i := range data {
		data[i] = T(i%61) / 64
	}
	off := make([]int, splits+rows+1)
	for r := range off {
		off[r] = r * pitch
	}
	var live []uint64
	if sh.live > 0 {
		live = make([]uint64, ProductTiles(rows)*((splits+63)/64))
		rng := rand.New(rand.NewSource(int64(splits)))
		for t := range ProductTiles(rows) {
			for s := 0; s < splits; s++ {
				if rng.Float64() < sh.live {
					live[t*len(live)/ProductTiles(rows)+s>>6] |= 1 << (s & 63)
				}
			}
		}
	}
	useful := 0
	for r := 0; r < rows; r++ {
		t := max(r/4, r-3*(rows/4)) * len(live) / ProductTiles(rows)
		for s := 0; s < splits; s++ {
			if live == nil || live[t+s>>6]>>(s&63)&1 != 0 {
				useful += width - min(width, max(0, s+sh.diag))
			}
		}
	}
	diag := "dense"
	if sh.diag != math.MinInt32 {
		diag = fmt.Sprintf("diag=%d", sh.diag)
	}
	if live != nil {
		diag += fmt.Sprintf("/live=%v", sh.live)
	}
	for _, impl := range Impls() {
		kern := BodyOf[T](impl)
		rate := func(b *testing.B) {
			b.ReportMetric(float64(useful)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "useful-Gcell/s")
		}
		b.Run(fmt.Sprintf("product/%s/%s/%s/%dx%d/k=%d/%s", k.name[:strings.IndexByte(k.name, ' ')], sh.name, impl, rows, width, splits, diag), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kern.Product(data[splits:], pitch, data, pitch, data[pitch+splits:], pitch, rows, width, splits, sh.diag, Pre[T]{}, live)
			}
			rate(b)
		})
		if sh.diag != math.MinInt32 {
			continue // the sweeps take every split: the dense row is theirs
		}
		b.Run(fmt.Sprintf("sweep/%s/%s/%s/%dx%d/k=%d", k.name[:strings.IndexByte(k.name, ' ')], sh.name, impl, rows, width, splits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					kern.Sweep(data[r*pitch:], data[r*pitch:], data, off[r:], 0, splits, splits, splits+width, Pre[T]{})
				}
			}
			rate(b)
		})
	}
}
