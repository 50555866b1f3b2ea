package maxplus

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refAccumulate is the obviously-correct form of the streaming update.
func refAccumulate(y, x []float32, a float32) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		v := a + x[i]
		if v > y[i] {
			y[i] = v
		}
	}
}

func randomSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*200 - 100
	}
	return s
}

func equalSlices(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAccumulateMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023} {
		x := randomSlice(rng, n)
		y := randomSlice(rng, n)
		want := append([]float32(nil), y...)
		a := rng.Float32()*10 - 5
		refAccumulate(want, x, a)
		Accumulate(y, x, a)
		if !equalSlices(y, want) {
			t.Errorf("n=%d: Accumulate differs from reference", n)
		}
	}
}

func TestAccumulate8MatchesAccumulate(t *testing.T) {
	f := func(seed int64, rawN uint16, a float32) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN % 300)
		x := randomSlice(rng, n)
		y1 := randomSlice(rng, n)
		y2 := append([]float32(nil), y1...)
		Accumulate(y1, x, a)
		Accumulate8(y2, x, a)
		return equalSlices(y1, y2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccumulateUnevenLengths(t *testing.T) {
	// y longer than x: only the prefix is updated.
	y := []float32{0, 0, 0, -50}
	x := []float32{10, 20}
	Accumulate(y, x, 1)
	want := []float32{11, 21, 0, -50}
	if !equalSlices(y, want) {
		t.Errorf("Accumulate uneven = %v, want %v", y, want)
	}
	// x longer than y: no out-of-bounds writes.
	y2 := []float32{0}
	Accumulate(y2, []float32{5, 6, 7}, 0)
	if y2[0] != 5 {
		t.Errorf("Accumulate prefix = %v", y2)
	}
}

func TestAccumulate8UnevenLengths(t *testing.T) {
	y := make([]float32, 20)
	x := make([]float32, 13)
	for i := range x {
		x[i] = float32(i)
	}
	Accumulate8(y, x, 1)
	for i := 0; i < 13; i++ {
		if y[i] != float32(i)+1 {
			t.Fatalf("y[%d] = %v", i, y[i])
		}
	}
	for i := 13; i < 20; i++ {
		if y[i] != 0 {
			t.Fatalf("y[%d] = %v, should be untouched", i, y[i])
		}
	}
}

func TestAccumulateIdempotentWhenDominated(t *testing.T) {
	y := []float32{100, 100, 100}
	x := []float32{0, 0, 0}
	Accumulate(y, x, 1)
	if !equalSlices(y, []float32{100, 100, 100}) {
		t.Errorf("dominated update changed y: %v", y)
	}
}

func TestDotMaxPlusStride(t *testing.T) {
	// b laid out as a 3x3 row-major matrix; walk column 1 (stride 3).
	b := []float32{
		0, 10, 0,
		0, 20, 0,
		0, 5, 0,
	}
	a := []float32{1, 1, 1}
	if got := DotMaxPlusStride(a, b[1:], 3); got != 21 {
		t.Errorf("DotMaxPlusStride = %v, want 21", got)
	}
}

func TestDotMaxPlusStrideMatchesDense(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%50) + 1
		a := randomSlice(rng, n)
		b := randomSlice(rng, n)
		dense := a[0] + b[0]
		for i := 1; i < n; i++ {
			dense = max(dense, a[i]+b[i])
		}
		return dense == DotMaxPlusStride(a, b, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddScalarInto: every body's max-plus MulInto, the row initializer
// dst[i] = a + x[i], writes the common prefix alone.
func TestAddScalarInto(t *testing.T) {
	for _, impl := range Impls() {
		into := BodyOf[float32](impl).MulInto
		dst := make([]float32, 4)
		into(dst, []float32{1, 2, 3, 4}, 10)
		if !equalSlices(dst, []float32{11, 12, 13, 14}) {
			t.Errorf("%s: MulInto = %v", impl, dst)
		}
		// Uneven lengths: only the common prefix is written.
		dst2 := []float32{-1, -1, -1}
		into(dst2, []float32{5}, 1)
		if !equalSlices(dst2, []float32{6, -1, -1}) {
			t.Errorf("%s: MulInto uneven = %v", impl, dst2)
		}
		into(nil, nil, 0) // must not panic
	}
}

func TestAccumulateCommutesWithOrder(t *testing.T) {
	// Applying updates (a1,x1) then (a2,x2) must equal the reverse order:
	// max-plus accumulation is order-independent.
	f := func(seed int64, a1, a2 float32) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x1 := randomSlice(rng, n)
		x2 := randomSlice(rng, n)
		y1 := randomSlice(rng, n)
		y2 := append([]float32(nil), y1...)
		Accumulate(y1, x1, a1)
		Accumulate(y1, x2, a2)
		Accumulate(y2, x2, a2)
		Accumulate(y2, x1, a1)
		return equalSlices(y1, y2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAccumulate times one stream on every body this process can run;
// 4096 elements is the repository benchmark's L1 probe.
func BenchmarkAccumulate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSlice(rng, 4096)
	y := randomSlice(rng, 4096)
	for _, impl := range Impls() {
		accumulate := BodyOf[float32](impl).Accum
		for _, n := range []int{32, 128, 512, 4096} {
			b.Run(fmt.Sprintf("%s/%d", impl, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(n * 4 * 3))
				for i := 0; i < b.N; i++ {
					accumulate(y[:n], x[:n], 1.5)
				}
			})
		}
	}
}

func BenchmarkAccumulate8(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := randomSlice(rng, 4096)
	y := randomSlice(rng, 4096)
	b.SetBytes(4096 * 4 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Accumulate8(y, x, 1.5)
	}
}

func BenchmarkDotMaxPlusStride(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := randomSlice(rng, 4096*64)
	a := randomSlice(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotMaxPlusStride(a, x, 64)
	}
}
