package maxplus

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The differential test of the exported kernels (the vector bodies where
// this build and CPU have them) against the portable Go loops: same bit
// patterns out, nothing written outside the slices. Under `-tags purego` and
// off amd64 both sides are the Go loops and it passes trivially.

const (
	maxLen = 70 // lengths 0..maxLen cover 0-8 full chunks plus every tail
	guard  = 16 // floats on either side of every slice that must not change
)

// guardBits is a NaN pattern no kernel produces, so a stray store shows.
const guardBits = 0x7fa5a5a5

// specials are the operands that separate a correct max-plus lane from a
// nearly correct one. There is one NaN payload on purpose: which of two
// different NaNs an add returns depends on the operand order the compiler
// picked for `a + x[i]`, and the fill never produces one.
var specials = []float32{
	float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	-1e30, // semiring.NegInf, the forbidden sentinel
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
	math.MaxFloat32, -math.MaxFloat32, // a+x overflows to ±Inf
	1, -1, 3, -7, 0.5, 16777216,
}

func operand(rng *rand.Rand) float32 {
	if rng.Intn(3) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return float32(rng.Intn(41) - 20)
}

// arena hands out float32 slices at a chosen lane of the 32-byte grid, each
// fenced by guard words, from one backing buffer whose bits can be compared
// whole.
type arena struct {
	buf         []float32
	first, next int // buf[first] and buf[next] are on the grid
}

func newArena(floats int) *arena {
	a := &arena{buf: make([]float32, floats+8)}
	for i := range a.buf {
		a.buf[i] = math.Float32frombits(guardBits)
	}
	for uintptr(unsafe.Pointer(&a.buf[a.first]))%32 != 0 {
		a.first++
	}
	a.next = a.first
	return a
}

// slice returns n floats whose first element sits at lane `lane` of its
// chunk.
func (a *arena) slice(n, lane int) []float32 {
	lo := a.next + guard + lane
	a.next = (lo + n + guard + 7) &^ 7
	return a.buf[lo : lo+n : lo+n]
}

// pair is two arenas cut identically: the kernels under test run on one, the
// Go loops on the other.
type pair struct{ got, want *arena }

// newPair sizes both arenas for `slices` slices totalling `floats` floats.
func newPair(slices, floats int) pair {
	room := floats + slices*(2*guard+16)
	return pair{newArena(room), newArena(room)}
}

// slice cuts the same slice from both arenas and fills both with the same
// operands.
func (p pair) slice(rng *rand.Rand, n, lane int) (got, want []float32) {
	got, want = p.got.slice(n, lane), p.want.slice(n, lane)
	for i := range got {
		got[i] = operand(rng)
		want[i] = got[i]
	}
	return got, want
}

// check compares the two arenas over everything handed out so far, results
// and guard words alike.
func (p pair) check(t *testing.T, what string) {
	t.Helper()
	g, w := p.got.buf[p.got.first:p.got.next], p.want.buf[p.want.first:p.want.next]
	for i := range g {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			t.Fatalf("%s: word %d of the arena is %#08x, the Go loops leave %#08x",
				what, i, math.Float32bits(g[i]), math.Float32bits(w[i]))
		}
	}
}

func TestStreamKernelsMatchGoBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= maxLen; n++ {
		for lane := 0; lane < 8; lane++ {
			xlane := rng.Intn(8)
			a1, a2 := operand(rng), operand(rng)
			what := fmt.Sprintf("n=%d lane=%d xlane=%d a=%v", n, lane, xlane, a1)

			p := newPair(4, 4*n)
			y, wy := p.slice(rng, n, lane)
			x, wx := p.slice(rng, n, xlane)
			Accumulate(y, x, a1)
			AccumulateGo(wy, wx, a1)
			p.check(t, "Accumulate "+what)
			Accumulate8(y, x, a2)
			Accumulate8Go(wy, wx, a2)
			p.check(t, "Accumulate8 "+what)

			d, wd := p.slice(rng, n, lane)
			AddScalarInto(d, x, a1)
			AddScalarIntoGo(wd, wx, a1)
			p.check(t, "AddScalarInto "+what)

			y2, wy2 := p.slice(rng, n, rng.Intn(8))
			AccumulateDual(y, y2, x, a1, a2)
			AccumulateDualGo(wy, wy2, wx, a1, a2)
			p.check(t, "AccumulateDual "+what)

			// Uneven lengths: only the common prefix moves.
			if n > 0 {
				Accumulate(y, x[:n-1], a2)
				AccumulateGo(wy, wx[:n-1], a2)
				Accumulate(y[:n/2], x, a1)
				AccumulateGo(wy[:n/2], wx, a1)
				p.check(t, "Accumulate, uneven "+what)
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
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= maxLen; n++ {
		for lane := 0; lane < 8; lane++ {
			for _, packed := range []bool{false, true} {
				off, size := rowOffsets(n, packed)
				what := fmt.Sprintf("n=%d lane=%d packed=%v", n, lane, packed)
				k0 := rng.Intn(n)
				k1 := k0 + rng.Intn(n-k0)

				// R0's shape: y is a row of another block.
				p := newPair(4, 2*size+2*n)
				b, wb := p.slice(rng, size, rng.Intn(8))
				a, wa := p.slice(rng, n, rng.Intn(8))
				y, wy := p.slice(rng, n, lane)
				Sweep(y, a, b, off, 0, n-1, n)
				SweepGo(wy, wa, wb, off, 0, n-1, n)
				p.check(t, "Sweep, whole row, "+what)
				Sweep(y, a, b, off, k0, k1, n)
				SweepGo(wy, wa, wb, off, k0, k1, n)
				p.check(t, fmt.Sprintf("Sweep, k2 in [%d,%d), %s", k0, k1, what))

				// R1's shape: y is row i2 of b itself, reading the rows below
				// it. On the packed map the floats either side of y[i2:n] are
				// the neighbouring rows' cells.
				blk, wblk := p.slice(rng, size, lane)
				for i2 := n - 1; i2 >= 0; i2-- {
					Sweep(blk[off[i2]:off[i2]+n], a, blk, off, i2, n-1, n)
					SweepGo(wblk[off[i2]:off[i2]+n], wa, wblk, off, i2, n-1, n)
				}
				p.check(t, "Sweep, in place, "+what)
			}
		}
	}
}

func TestSweepRejectsRowsOutsideTheBlock(t *testing.T) {
	const n = 12
	off, size := rowOffsets(n, false)
	y, a, b := make([]float32, n), make([]float32, n), make([]float32, size)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"row past the block", func() { Sweep(y, a, b[:size-1:size-1], off, 0, n-1, n) }},
		{"row before the block", func() {
			bad := append([]int(nil), off...)
			bad[3] = -5
			Sweep(y, a, b, bad, 0, n-1, n)
		}},
		{"short y", func() { Sweep(y[:n-1:n-1], a, b, off, 0, n-1, n) }},
		{"short a", func() { Sweep(y, a[:3:3], b, off, 0, n-1, n) }},
		{"negative k0", func() { Sweep(y, a, b, off, -1, n-1, n) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Sweep did not panic", c.name)
				}
			}()
			c.run()
		}()
	}
}

func BenchmarkSweep(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			off, size := rowOffsets(n, false)
			y, a, blk := make([]float32, n), make([]float32, n), make([]float32, size)
			b.SetBytes(int64(n * (n - 1) / 2 * 4))
			for i := 0; i < b.N; i++ {
				Sweep(y, a, blk, off, 0, n-1, n)
			}
		})
	}
}

// The tests above cannot see a kernel store a lane outside its stream when
// it stores the value it loaded earlier in the call: the bits do not change.
// (-race cannot either: it does not instrument assembly.) Such a store is
// still a lost update when the lane is another row's cell and another
// goroutine is writing it, as in the row-parallel schedules on the packed and
// band maps, where the floats either side of y[k2+1:n] are the neighbouring
// rows' tails.

// ownedBySomeoneElse runs kernel over and over on one goroutine while this
// one counts the word at *cell upwards, and fails if a count it stored is
// ever replaced by an older one.
func ownedBySomeoneElse(t *testing.T, what string, cell *float32, kernel func()) {
	t.Helper()
	const budget = 5 * time.Millisecond
	word := (*uint32)(unsafe.Pointer(cell))
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
	var count uint32
	atomic.StoreUint32(word, count)
	for end := time.Now().Add(budget); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			if got := atomic.LoadUint32(word); got != count {
				t.Fatalf("%s: a word outside the stream went from %d back to %d while the kernel ran: it stores lanes it does not own",
					what, count, got)
			}
			count++
			atomic.StoreUint32(word, count)
		}
	}
}

func TestKernelsLeaveNeighbouringCellsToTheirWriter(t *testing.T) {
	// The writer and the kernel must be able to interleave inside one call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const n = 29
	off, size := rowOffsets(n, true)
	for lane := 0; lane < 8; lane++ {
		ar := newArena(size + 2*n + 3*(2*guard+16))
		b, a := ar.slice(size, 3), ar.slice(n, 5)
		lo := ar.next + guard + lane // where the next slice starts
		y := ar.slice(n, lane)
		before, after := &ar.buf[lo-1], &ar.buf[lo+n]

		// Streams that start inside the row's last chunk: the sweep's last
		// chunk register then holds lanes before y[k0+1], down to y[0] and
		// past it.
		last := (lane + n) &^ 7 // grid lane the last chunk starts at
		for k0 := max(last-lane-1, 0); k0 < n-1; k0++ {
			what := fmt.Sprintf("Sweep lane=%d k0=%d", lane, k0)
			sweep := func() { Sweep(y, a, b, off, k0, n-1, n) }
			ownedBySomeoneElse(t, what+", the word before y[k0+1]", &y[k0], sweep)
			if k0 == n-2 {
				ownedBySomeoneElse(t, what+", the word before y[0]", before, sweep)
				ownedBySomeoneElse(t, what+", the word after y[n-1]", after, sweep)
			}
		}
		ownedBySomeoneElse(t, fmt.Sprintf("Sweep lane=%d, whole row, the word before y[0]", lane), before,
			func() { Sweep(y, a, b, off, 0, n-1, n) })

		x, y2, m := b[:n], a, min(3, 8-lane) // y[:m] lies in one chunk
		for _, c := range []struct {
			name   string
			kernel func()
		}{
			{"Accumulate", func() { Accumulate(y, x, 1) }},
			{"AccumulateDual", func() { AccumulateDual(y, y2, x, 1, 2) }},
			{"AddScalarInto", func() { AddScalarInto(y, x, 1) }},
		} {
			what := fmt.Sprintf("%s lane=%d", c.name, lane)
			ownedBySomeoneElse(t, what+", the word before y[0]", before, c.kernel)
			ownedBySomeoneElse(t, what+", the word after y[n-1]", after, c.kernel)
		}
		short := func() { Accumulate(y[:m], x, 1) }
		ownedBySomeoneElse(t, fmt.Sprintf("Accumulate lane=%d n=%d, the word before y[0]", lane, m), before, short)
		ownedBySomeoneElse(t, fmt.Sprintf("Accumulate lane=%d n=%d, the word after it", lane, m), &y[m], short)
	}
}
