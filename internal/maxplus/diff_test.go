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

// kernels is one body's streaming kernels in one algebra; each, the pairing
// stream, is max-plus only (nil in the sum-product).
type kernels[T elem] struct {
	accum func(y, x []T, a T)
	into  func(dst, x []T, a T)
	sweep func(y, a, b []T, off []int, k0, k1, from, n int)
	each  func(y, x, w []T)
}

// algebra is one algebra's kernels in each body and the Go loops they must
// match.
type algebra[T elem] struct {
	name       string
	of         func(Body) kernels[T]
	goLoops    kernels[T]
	guardWord  T   // a NaN pattern no kernel produces, so a stray store shows
	specials   []T // the operands that separate a correct lane from a nearly correct one
	ordinary   func(rng *rand.Rand) T
	sweepPanic string // how the sweep's argument panics begin
}

// eachBody runs f as one subtest per body in testBodies, on that body's
// kernels.
func eachBody[T elem](t *testing.T, k *algebra[T], f func(*testing.T, *algebra[T], kernels[T])) {
	for _, impl := range testBodies() {
		t.Run(impl, func(t *testing.T) { f(t, k, k.of(BodyOf(impl))) })
	}
}

// There is one NaN payload among the float32 specials on purpose: which of
// two different NaNs an add returns depends on the operand order the compiler
// picked for `a + x[i]`, and the fill never produces one.
var maxPlus = algebra[float32]{
	name: "max-plus float32",
	of: func(b Body) kernels[float32] {
		return kernels[float32]{b.Accumulate, b.AddScalarInto, b.Sweep, b.AccumEach}
	},
	goLoops:   kernels[float32]{AccumulateGo, AddScalarIntoGo, SweepGo, AccumEachGo},
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
	of: func(b Body) kernels[float64] {
		return kernels[float64]{b.SumProduct, b.MulScalarInto, b.SumProductSweep, nil}
	},
	goLoops:   kernels[float64]{SumProductGo, MulScalarIntoGo, SumProductSweepGo, nil},
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

func streamKernelsMatchGo[T elem](t *testing.T, k *algebra[T], kern kernels[T]) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= maxLen; n++ {
		for lane := 0; lane < lanes[T](); lane++ {
			xlane := rng.Intn(lanes[T]())
			a1, a2 := k.operand(rng), k.operand(rng)
			what := fmt.Sprintf("n=%d lane=%d xlane=%d a=%v", n, lane, xlane, a1)

			p := newPair(k, 4, 4*n)
			y, wy := p.slice(rng, n, lane)
			x, wx := p.slice(rng, n, xlane)
			kern.accum(y, x, a1)
			k.goLoops.accum(wy, wx, a1)
			p.check(t, "accumulate "+what)

			d, wd := p.slice(rng, n, lane)
			kern.into(d, x, a1)
			k.goLoops.into(wd, wx, a1)
			p.check(t, "scalar-into "+what)

			// Uneven lengths: only the common prefix moves.
			if n > 0 {
				kern.accum(y, x[:n-1], a2)
				k.goLoops.accum(wy, wx[:n-1], a2)
				kern.accum(y[:n/2], x, a1)
				k.goLoops.accum(wy[:n/2], wx, a1)
				p.check(t, "accumulate, uneven "+what)
			}

		}
	}
}

// TestAccumEachMatchesGoBitForBit holds every body's pairing stream to
// AccumEachGo: lengths 0…maxLen with y, x and w each at any lane, guard words
// on both ends of every slice, a y longer than x (only len(x) cells move),
// and ties — a candidate equal to y, as a zero of the other sign or the same
// value — which must keep y's bits, as must a NaN on either side.
func TestAccumEachMatchesGoBitForBit(t *testing.T) {
	eachBody(t, &maxPlus, func(t *testing.T, k *algebra[float32], kern kernels[float32]) {
		rng := rand.New(rand.NewSource(38))
		negZero := float32(math.Copysign(0, -1))
		for n := 0; n <= maxLen; n++ {
			for lane := 0; lane < lanes[float32](); lane++ {
				what := fmt.Sprintf("n=%d lane=%d", n, lane)
				p := newPair(k, 7, 7*n+1)
				y, wy := p.slice(rng, n+1, lane)
				x, wx := p.slice(rng, n, rng.Intn(lanes[float32]()))
				w, ww := p.slice(rng, n, rng.Intn(lanes[float32]()))
				kern.each(y, x, w)
				k.goLoops.each(wy, wx, ww)
				p.check(t, "accum-each "+what)

				// Ties: y = -0 against +0 + +0, y = +0 against -0 + -0, and
				// y = v against v + 0.
				ty, wty := p.slice(rng, n, lane)
				tx, wtx := p.slice(rng, n, rng.Intn(lanes[float32]()))
				tw, wtw := p.slice(rng, n, rng.Intn(lanes[float32]()))
				for i := range ty {
					v := [...]float32{negZero, 0, float32(rng.Intn(41) - 20)}[i%3]
					x := [...]float32{0, negZero, v}[i%3]
					ty[i], wty[i], tx[i], wtx[i], tw[i], wtw[i] = v, v, x, x, x*0, x*0
				}
				kern.each(ty, tx, tw)
				k.goLoops.each(wty, wtx, wtw)
				p.check(t, "accum-each, ties "+what)
				for i := range ty {
					if want := [...]float32{negZero, 0, wty[i]}[i%3]; math.Float32bits(ty[i]) != math.Float32bits(want) {
						t.Fatalf("accum-each, ties %s: y[%d] = %v, want y's own %v", what, i, ty[i], want)
					}
				}
			}
		}
	})
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
		{"SumProductSweepGo", n - 1, func(y []float64) { SumProductSweepGo(y, a, b, off, n-2, n-1, 0, n) }},
	}
	for _, impl := range Impls() {
		body := BodyOf(impl)
		runs = append(runs,
			run{impl + " SumProduct", 0, func(y []float64) { body.SumProduct(y, b[:n], a[0]) }},
			run{impl + " SumProductSweep", n - 1, func(y []float64) { body.SumProductSweep(y, a, b, off, n-2, n-1, 0, n) }})
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
// stream to a diagonal that spans two blocks, every left column bound.
func sweepMatchesGo[T elem](t *testing.T, k *algebra[T], kern kernels[T]) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= maxLen; n++ {
		for lane := 0; lane < blockLanes[T](); lane++ {
			for _, packed := range []bool{false, true} {
				off, size := rowOffsets(n, packed)
				what := fmt.Sprintf("n=%d lane=%d packed=%v", n, lane, packed)

				// R0's shape: y is a row of another block.
				p := newPair(k, 4, 2*size+2*n)
				b, wb := p.slice(rng, size, rng.Intn(blockLanes[T]()))
				a, wa := p.slice(rng, n, rng.Intn(blockLanes[T]()))
				y, wy := p.slice(rng, n, lane)
				kern.sweep(y, a, b, off, 0, n-1, 0, n)
				k.goLoops.sweep(wy, wa, wb, off, 0, n-1, 0, n)
				p.check(t, "sweep, whole row, "+what)
				for from := 0; from < n; from++ {
					k0 := rng.Intn(n)
					k1 := k0 + rng.Intn(n-k0)
					kern.sweep(y, a, b, off, k0, k1, from, n)
					k.goLoops.sweep(wy, wa, wb, off, k0, k1, from, n)
					p.check(t, fmt.Sprintf("sweep, k2 in [%d,%d) from column %d, %s", k0, k1, from, what))

					// R2's shape: a is y itself, the cells [k0, from) final in
					// memory while the lanes from `from` up are in registers.
					k0 = rng.Intn(from + 1)
					kern.sweep(y, y, b, off, k0, from, from, n)
					k.goLoops.sweep(wy, wy, wb, off, k0, from, from, n)
					p.check(t, fmt.Sprintf("sweep, a = y, k2 in [%d,%d) from column %d, %s", k0, from, from, what))
				}

				// R1's shape: y is row i2 of b itself, reading the rows below
				// it. On the packed map the cells either side of y[i2:n] are
				// the neighbouring rows' cells.
				blk, wblk := p.slice(rng, size, lane)
				for i2 := n - 1; i2 >= 0; i2-- {
					kern.sweep(blk[off[i2]:off[i2]+n], a, blk, off, i2, n-1, 0, n)
					k.goLoops.sweep(wblk[off[i2]:off[i2]+n], wa, wblk, off, i2, n-1, 0, n)
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
func sweepRejectsRowsOutsideTheBlock[T elem](t *testing.T, k *algebra[T], kern kernels[T]) {
	const n = 12
	off, size := rowOffsets(n, false)
	y, a, b := make([]T, n), make([]T, n), make([]T, size)
	for _, c := range []struct {
		name string
		want string // what follows the sweep's name in the panic
		run  func()
	}{
		{"row past the block", "row 11 ", func() { kern.sweep(y, a, b[:size-1:size-1], off, 0, n-1, 0, n) }},
		{"row before the block", "row 3 ", func() {
			bad := append([]int(nil), off...)
			bad[3] = -5
			kern.sweep(y, a, b, bad, 0, n-1, 0, n)
		}},
		{"short y", "k2 range ", func() { kern.sweep(y[:n-1:n-1], a, b, off, 0, n-1, 0, n) }},
		{"short a", "k2 range ", func() { kern.sweep(y, a[:3:3], b, off, 0, n-1, 0, n) }},
		{"negative k0", "k2 range ", func() { kern.sweep(y, a, b, off, -1, n-1, 0, n) }},
		{"negative from", "k2 range [0,11) from column -1 ", func() { kern.sweep(y, a, b, off, 0, n-1, -1, n) }},
		{"from past the row", "k2 range [0,11) from column 12 ", func() { kern.sweep(y, a, b, off, 0, n-1, n, n) }},
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

func sweepRunsTheStreamsBeforeABadRow[T elem](t *testing.T, k *algebra[T], kern kernels[T]) {
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
						p := newPair(k, 3, 3*n+room)
						b, wb := p.slice(rng, n+room, 5)
						a, wa := p.slice(rng, n, 9)
						y, wy := p.slice(rng, n, 3)
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
							kern.sweep(y, a, b, off, k0, k1, from, n)
						}()
						k.goLoops.sweep(wy, wa, wb, off, k0, end, from, n)
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
		sweep := k.of(BodyOf(impl)).sweep
		for _, n := range []int{32, 128, 512} {
			b.Run(fmt.Sprintf("%s/%d", impl, n), func(b *testing.B) {
				off, size := rowOffsets(n, false)
				y, a, blk := make([]T, n), make([]T, n), make([]T, size)
				b.SetBytes(int64(n * (n - 1) / 2 * int(unsafe.Sizeof(y[0]))))
				for i := 0; i < b.N; i++ {
					sweep(y, a, blk, off, 0, n-1, 0, n)
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
func kernelsLeaveNeighbouringCells[T elem](t *testing.T, k *algebra[T], kern kernels[T]) {
	for lane := 0; lane < blockLanes[T](); lane++ {
		// A row that ends inside a block, and one that ends on a block's edge.
		sweepLeavesNeighbouringCells(t, k, kern, lane, 29)
		sweepLeavesNeighbouringCells(t, k, kern, lane, 2*blockLanes[T]()-lane)
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
			{"accumulate", func() { kern.accum(y, x, 1) }},
			{"scalar-into", func() { kern.into(y, x, 1) }},
		}
		if kern.each != nil {
			kernels = append(kernels, kernel{"accum-each", func() { kern.each(y, x, x) }})
		}
		for _, c := range kernels {
			what := fmt.Sprintf("%s lane=%d", c.name, lane)
			ownedBySomeoneElse(t, what+", the word before y[0]", before, c.run)
			ownedBySomeoneElse(t, what+", the word after y[n-1]", after, c.run)
		}
		short := func() { kern.accum(y[:m], x, 1) }
		ownedBySomeoneElse(t, fmt.Sprintf("accumulate lane=%d n=%d, the word before y[0]", lane, m), before, short)
		ownedBySomeoneElse(t, fmt.Sprintf("accumulate lane=%d n=%d, the word after it", lane, m), &y[m], short)
	}
}

// sweepLeavesNeighbouringCells: the sweep stores whole blocks, but for the
// lanes of the first block left of the first stream and those of the last
// block from y[n] on.
func sweepLeavesNeighbouringCells[T elem](t *testing.T, k *algebra[T], kern kernels[T], lane, n int) {
	off, size := rowOffsets(n, true)
	ar := newArena(arenaRoom(3, size+2*n), k.guardWord)
	b, a := ar.slice(size, 3), ar.slice(n, 1)
	lo := ar.next + guard + lane // where the next slice starts
	y := ar.slice(n, lane)
	before, after := &ar.buf[lo-1], &ar.buf[lo+n]
	what := fmt.Sprintf("sweep lane=%d n=%d", lane, n)

	whole := func() { kern.sweep(y, a, b, off, 0, n-1, 0, n) }
	ownedBySomeoneElse(t, what+", whole row, the word before y[0]", before, whole)
	ownedBySomeoneElse(t, what+", whole row, y[0]", &y[0], whole)
	ownedBySomeoneElse(t, what+", whole row, the word after y[n-1]", after, whole)

	// One stream into y[n-1]: the first block is the last, and everything in
	// it but one lane is someone else's.
	last := func() { kern.sweep(y, a, b, off, n-2, n-1, 0, n) }
	ownedBySomeoneElse(t, what+", last stream, the word before y[n-1]", &y[n-2], last)
	ownedBySomeoneElse(t, what+", last stream, the word before y[0]", before, last)
	ownedBySomeoneElse(t, what+", last stream, the word after y[n-1]", after, last)

	// Streams that start in the middle of a block, at k0+1 and at `from`.
	mid := n / 2
	tail := func() { kern.sweep(y, a, b, off, mid, n-1, 0, n) }
	ownedBySomeoneElse(t, what+", k0 mid-row, the word before y[k0+1]", &y[mid], tail)
	bound := func() { kern.sweep(y, y, b, off, mid/2, mid, mid, n) }
	ownedBySomeoneElse(t, what+", a = y from mid-row, the word before y[from]", &y[mid-1], bound)
	ownedBySomeoneElse(t, what+", a = y from mid-row, the word after y[n-1]", after, bound)
}
