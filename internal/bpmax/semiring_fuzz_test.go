package bpmax

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// FuzzSemiringParity is the semiring-generic fill's differential fuzzer; the
// fuzz input picks the algebra (even: max-plus, odd: partition at one of the
// five supported temperatures).
//
// Max-plus pins the generic fill to the pre-refactor semantics: the top-down
// memoized oracle (refDP) hard-codes float32 max-plus and never touches the
// generic solver, so any drift introduced by the algebra abstraction — a
// reassociated sum, a lost tie-break, a changed base case — shows up as a
// cell mismatch. Every schedule variant — on the full table and on a fuzzed
// band of it — and the traceback are checked bit-for-bit. The oracle never touches the streaming
// kernels either, so the kernel body is one more input: `kernel` picks,
// through Config.SetKernels, the process's body (AVX-512 where the CPU has
// it), the AVX2 body (which such a CPU runs too; the process's where it does
// not) or the portable Go loops (the 8-way unrolled loop, what a portable
// build's fill runs); the box or the packed memory map (whose rows abut, so a
// vector store past a row's end lands in its neighbour); and short or long
// rows — long ones span several vectors of the vector bodies and the unrolled
// loop's main body, block rows several of the sweep's blocks. `rkT`, which
// only the partition arm reads as a temperature, picks the weight model
// (parityModels): integer, dyadic and rounded non-dyadic weights, on each of
// which every sum is exact, so the traceback's weight, which adds a
// structure's pairs in another order than the fill did, is its cell's.
//
// Partition checks the scaled sum-product fill against the log-domain
// top-down oracle on every cell through the domain-aware read (LogAt, what
// Result.SubLogZ returns), all four optimized schedules, on the map and row
// shape `kernel` picks. The kernel body is not an input of the result there
// either: the process's sum-product kernels and the Go loops must leave equal
// cells (==, the bodies round alike), as must a pooled fill on whichever body
// `kernel` names.
func FuzzSemiringParity(f *testing.F) {
	const (
		goKernels   = 1 // kernel&3: 0 the process's body, 1 the Go loops, 2 the AVX2 body, 3 the process's
		avx2Kernels = 2
		packedMap   = 4
		longRows    = 8  // n1 <= 3, n2 <= 40 in place of both <= 9
		blockRows   = 16 // n1 <= 2, n2 <= 160: rows of several of the sweep's blocks
	)
	f.Add(int64(1), uint8(5), uint8(7), uint8(3), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(9), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(goKernels))
	f.Add(int64(42), uint8(8), uint8(4), uint8(1), uint8(5), uint8(0), uint8(0), uint8(packedMap))
	f.Add(int64(1), uint8(5), uint8(7), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add(int64(9), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(8), uint8(8), uint8(0), uint8(0), uint8(1), uint8(4), uint8(0))
	f.Add(int64(3), uint8(2), uint8(36), uint8(1), uint8(30), uint8(0), uint8(0), uint8(longRows))
	f.Add(int64(3), uint8(2), uint8(36), uint8(1), uint8(30), uint8(0), uint8(0), uint8(longRows|goKernels))
	f.Add(int64(3), uint8(2), uint8(36), uint8(1), uint8(30), uint8(0), uint8(0), uint8(longRows|avx2Kernels))
	f.Add(int64(7), uint8(1), uint8(29), uint8(2), uint8(11), uint8(0), uint8(0), uint8(longRows|packedMap))
	f.Add(int64(7), uint8(1), uint8(29), uint8(2), uint8(11), uint8(0), uint8(0), uint8(longRows|packedMap|goKernels))
	f.Add(int64(7), uint8(1), uint8(29), uint8(2), uint8(11), uint8(0), uint8(0), uint8(longRows|packedMap|avx2Kernels))
	f.Add(int64(3), uint8(2), uint8(36), uint8(0), uint8(0), uint8(1), uint8(1), uint8(longRows|packedMap))
	f.Add(int64(7), uint8(1), uint8(29), uint8(0), uint8(0), uint8(1), uint8(3), uint8(longRows|goKernels))
	f.Add(int64(7), uint8(1), uint8(29), uint8(0), uint8(0), uint8(1), uint8(3), uint8(longRows|avx2Kernels))
	for model := uint8(1); model < 5; model++ {
		f.Add(int64(model), uint8(6), uint8(8), uint8(2), uint8(4), uint8(0), model, uint8(model%2*packedMap))
		f.Add(int64(model), uint8(2), uint8(37), uint8(1), uint8(20), uint8(0), model, uint8(longRows|goKernels|model%2*packedMap))
	}
	// Rows that start, end and are cut by the band inside, on and just past
	// the edges of the blocks the sweeps hold in registers (float32: 32 lanes
	// AVX2, 64 AVX-512; float64: 16 and 32), on both maps and on the process's
	// and the AVX2 body: the packed rows start at every lane. Max-plus rows run
	// under an integer model (rkT 0-2) and a fractional one (rkT 3-4).
	for i, n2 := range []uint8{31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 160} {
		for _, body := range []uint8{0, avx2Kernels} {
			for _, model := range []uint8{uint8(i % 3), uint8(3 + i%2)} {
				f.Add(int64(n2), uint8(1), n2-1, uint8(1), n2/2+uint8(i), uint8(0), model, uint8(blockRows|body))
				f.Add(int64(n2), uint8(1), n2-1, uint8(0), n2/3, uint8(0), model, uint8(blockRows|packedMap|body))
			}
		}
		f.Add(int64(n2), uint8(1), n2-1, uint8(0), uint8(0), uint8(1), uint8(i), uint8(blockRows|packedMap*uint8(i%2)|avx2Kernels*uint8(i/2%2)))
	}
	f.Fuzz(func(t *testing.T, seed int64, rn1, rn2, rw1, rw2, algebra, rkT, kernel uint8) {
		n1 := 1 + int(rn1)%9
		n2 := 1 + int(rn2)%9
		if kernel&longRows != 0 {
			n1, n2 = 1+int(rn1)%3, 1+int(rn2)%40
		}
		if kernel&blockRows != 0 {
			n1, n2 = 1+int(rn1)%2, 1+int(rn2)%160
		}
		rng := rand.New(rand.NewSource(seed))
		model := parityModels[0]
		if algebra%2 == 0 {
			model = parityModels[int(rkT)%len(parityModels)]
		}
		p, err := NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), model.params)
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		cfg := Config{Workers: 2}
		if kernel&packedMap != 0 {
			cfg.Map = MapPacked
		}
		switch body := kernel & 3; {
		case body == goKernels:
			cfg.SetKernels("go")
		case body == avx2Kernels && slices.Contains(maxplus.Impls(), "avx2"):
			cfg.SetKernels("avx2")
		}
		if algebra%2 == 1 {
			fuzzPartitionParity(t, p, []float64{2, 1, 0.5, 0.25, 0.1}[int(rkT)%5], cfg, kernel&(longRows|blockRows) != 0)
			return
		}
		ref := newRefDP(p)
		oracle := func(label string, at func(i1, j1, i2, j2 int) float32, w1, w2 int) {
			for i1 := 0; i1 < n1; i1++ {
				for j1 := i1; j1 < n1 && j1-i1 < w1; j1++ {
					for i2 := 0; i2 < n2; i2++ {
						for j2 := i2; j2 < n2 && j2-i2 < w2; j2++ {
							if got, want := at(i1, j1, i2, j2), ref.f(i1, j1, i2, j2); got != want {
								t.Fatalf("%s: F[%d,%d,%d,%d] = %v, oracle %v",
									label, i1, j1, i2, j2, got, want)
							}
						}
					}
				}
			}
		}
		// The window is an axis of the variant loop, not a solver of its own:
		// every streamed schedule fills the band (w1, w2) — w >= n included —
		// on the configured map, fresh and pooled. (Base is the per-cell
		// gather baseline and has no banded form.)
		w1 := 1 + int(rw1)%(n1+2)
		w2 := 1 + int(rw2)%(n2+2)
		pl := NewPool()
		var firstSt *Structure
		for _, v := range Variants {
			ft := Solve(p, v, cfg)
			oracle(v.String(), ft.At, n1, n2)
			// Identical tables must yield identical tracebacks: the walk
			// reads only table cells and scores, nothing variant-specific.
			st := Traceback(p, ft)
			if firstSt == nil {
				firstSt = st
			} else if !reflect.DeepEqual(st, firstSt) {
				t.Fatalf("%s: traceback diverged from %s", v, Variants[0])
			}
			if v == VariantBase {
				continue
			}
			for _, pool := range []*Pool{nil, pl} {
				bcfg := cfg
				bcfg.Pool = pool
				band, err := newSolver(p, bcfg, w1, w2).fill(context.Background(), v, "windowed")
				if err != nil {
					t.Fatalf("%s band (%d,%d): %v", v, w1, w2, err)
				}
				oracle(v.String()+" band", band.At, w1, w2)
				// A banded traceback's weight is the stored cell it starts from.
				best, i1, j1, i2, j2 := band.BestWithin(band.W1, band.W2)
				if got := TracebackFrom(p, band, i1, j1, i2, j2).Weight(p); got != best {
					t.Fatalf("%s band (%d,%d): traceback from (%d,%d,%d,%d) weighs %v, cell %v",
						v, w1, w2, i1, j1, i2, j2, got, best)
				}
				band.Release()
			}
		}
		if st := pl.Stats(); st.Buffers.Live != 0 {
			t.Fatalf("leaked %d pooled buffers", st.Buffers.Live)
		}
	})
}

// parityModels is the max-plus arm's weight-model axis (rkT picks one), with
// the GC, AU and GU weights each model holds once built: on the 2⁻⁸ grid
// (score.GridBits), the dyadic weights as given and the non-dyadic ones
// rounded (TestParityModelsOnTheGrid).
var parityModels = []struct {
	name    string
	params  score.Params
	weights [3]score.Value
}{
	{"default", score.DefaultParams(), [3]score.Value{3, 2, 1}},
	{"unit", score.Params{Model: score.Unit()}, [3]score.Value{1, 1, 1}},
	{"integer", customParams(7, 4, 2), [3]score.Value{7, 4, 2}},
	{"dyadic", customParams(2.75, 1.25, 0.5), [3]score.Value{2.75, 1.25, 0.5}},
	{"non-dyadic", customParams(3.1, 1.7, 0.3), [3]score.Value{794.0 / 256, 435.0 / 256, 77.0 / 256}},
}

// TestParityModelsOnTheGrid: each parity model holds the weights its row of
// parityModels lists, in both orientations.
func TestParityModelsOnTheGrid(t *testing.T) {
	for _, md := range parityModels {
		m := md.params.Model
		for i, pair := range [][2]rna.Base{{rna.G, rna.C}, {rna.A, rna.U}, {rna.G, rna.U}} {
			if a, b := m.Pair(pair[0], pair[1]), m.Pair(pair[1], pair[0]); a != md.weights[i] || b != md.weights[i] {
				t.Errorf("%s: %c%c weighs %v / %v, want %v", md.name, pair[0], pair[1], a, b, md.weights[i])
			}
		}
	}
}

// customParams is a model with the given GC, AU and GU weights.
func customParams(gc, au, gu score.Value) score.Params {
	return score.Params{Model: score.Custom("custom", map[[2]rna.Base]score.Value{
		{rna.G, rna.C}: gc, {rna.A, rna.U}: au, {rna.G, rna.U}: gu,
	})}
}

// fuzzPartitionParity is FuzzSemiringParity's partition arm; cfg carries the
// memory map and, for the pooled fill, the kernel body. With logDomain the
// log-domain fill — what a tripped range guard refills with — is held to the
// oracle on every schedule too, on the long rows whose R2 spans several
// sweep blocks.
func fuzzPartitionParity(t *testing.T, p *Problem, kT float64, cfg Config, logDomain bool) {
	ctx := context.Background()
	ps := buildTestPartitionSub(t, p, kT)
	want, err := SolvePartitionContext(ctx, p, ps, VariantReference, Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if want.Scaled() {
		t.Fatal("the oracle ran in the scaled domain")
	}
	pl := NewPool()
	for _, v := range []Variant{VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled} {
		solve := func(label, impl string, pool *Pool) *FTableOf[float64] {
			c := cfg
			c.SetKernels(impl)
			c.Pool = pool
			ft, err := SolvePartitionContext(ctx, p, ps, v, c)
			if err != nil {
				t.Fatalf("%s %s: %v", v, label, err)
			}
			if !ft.Scaled() {
				t.Fatalf("%s %s kT=%v: served by the log domain", v, label, kT)
			}
			return ft
		}
		fresh := solve("process kernels", "", nil)
		goLoops := solve("Go kernels", "go", nil)
		pooled := solve("pooled", cfg.kernels, pl)
		eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
			got := fresh.At(i1, j1, i2, j2)
			closeRel(t, want.LogAt(i1, j1, i2, j2), fresh.LogAt(i1, j1, i2, j2), 1e-12, v.String())
			if g, pd := goLoops.At(i1, j1, i2, j2), pooled.At(i1, j1, i2, j2); g != got || pd != got {
				t.Fatalf("%s: F[%d,%d,%d,%d] = %v fresh on the process's kernels, %v on the Go loops, %v pooled on %q",
					v, i1, j1, i2, j2, got, g, pd, cfg.kernels)
			}
		})
		pooled.Release()
		if logDomain {
			ld := logDomainFill(t, p, ps, v, cfg)
			eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
				closeRel(t, want.LogAt(i1, j1, i2, j2), ld.LogAt(i1, j1, i2, j2), 1e-12, v.String()+" log domain")
			})
		}
	}
	if st := pl.Stats(); st.Buffers.Live != 0 {
		t.Fatalf("leaked %d pooled buffers", st.Buffers.Live)
	}
}
