package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// newTestProblem builds a problem over random sequences.
func newTestProblem(t testing.TB, seed int64, n1, n2 int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), score.DefaultParams())
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

// tablesEqual compares two filled tables cell by cell (exact equality: all
// variants compute identical pairwise sums).
func tablesEqual(t *testing.T, p *Problem, want, got *FTable, label string) {
	t.Helper()
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					w := want.At(i1, j1, i2, j2)
					g := got.At(i1, j1, i2, j2)
					if w != g {
						t.Fatalf("%s: F[%d,%d,%d,%d] = %v, want %v", label, i1, j1, i2, j2, g, w)
					}
				}
			}
		}
	}
}

func TestNewProblemRejectsEmpty(t *testing.T) {
	s := rna.MustNew("ACGU")
	if _, err := NewProblem(rna.Sequence{}, s, score.DefaultParams()); err == nil {
		t.Error("empty seq1 accepted")
	}
	if _, err := NewProblem(s, rna.Sequence{}, score.DefaultParams()); err == nil {
		t.Error("empty seq2 accepted")
	}
}

func TestAllVariantsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		n1 := 1 + rng.Intn(9)
		n2 := 1 + rng.Intn(9)
		p := newTestProblem(t, seed, n1, n2)
		ref := Solve(p, VariantReference, Config{})
		for _, v := range Variants {
			for _, workers := range []int{1, 3} {
				got := Solve(p, v, Config{Workers: workers})
				tablesEqual(t, p, ref, got, v.String())
			}
		}
	}
}

func TestVariantsMatchOnLargerInstance(t *testing.T) {
	// One moderately sized instance exercising multi-tile, multi-diagonal
	// paths (tile size smaller than N2 to force tile boundaries).
	p := newTestProblem(t, 7, 13, 21)
	ref := Solve(p, VariantBase, Config{})
	cfg := Config{Workers: 4, TileI2: 4, TileK2: 3}
	for _, v := range []Variant{VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled} {
		tablesEqual(t, p, ref, Solve(p, v, cfg), v.String())
	}
}

func TestTileShapesDoNotChangeResults(t *testing.T) {
	p := newTestProblem(t, 11, 6, 17)
	ref := Solve(p, VariantBase, Config{})
	shapes := []Config{
		{TileI2: 1, TileK2: 1, TileJ2: 1},
		{TileI2: 2, TileK2: 5, TileJ2: 3},
		{TileI2: 17, TileK2: 17, TileJ2: 0},
		{TileI2: 64, TileK2: 16, TileJ2: 0},
		{TileI2: 3, TileK2: 2, TileJ2: 100},
	}
	for _, cfg := range shapes {
		cfg.Workers = 2
		got := Solve(p, VariantHybridTiled, cfg)
		tablesEqual(t, p, ref, got, "tiled")
	}
}

func TestMemoryMapsAgree(t *testing.T) {
	p := newTestProblem(t, 3, 7, 9)
	box := Solve(p, VariantHybrid, Config{Map: MapBox})
	packed := Solve(p, VariantHybrid, Config{Map: MapPacked})
	tablesEqual(t, p, box, packed, "packed-map")
	if box.Bytes() <= packed.Bytes() {
		t.Errorf("box (%d B) should use more memory than packed (%d B)", box.Bytes(), packed.Bytes())
	}
}

// TestPackedRowsInParallel runs the row-parallel schedules on the maps whose
// rows abut in memory (packed, and the windowed fill's band), with rows long
// enough to span several 8-lane chunks and tiles small enough that
// neighbouring rows belong to different goroutines. A kernel that stores
// past a row's ends corrupts its neighbour — a table mismatch here, and on
// the Go kernels a report under -race (ci.sh race), which sees every store
// the schedule makes; the assembly it cannot see is pinned lane by lane in
// internal/maxplus.
func TestPackedRowsInParallel(t *testing.T) {
	p := newTestProblem(t, 11, 5, 45)
	ref := Solve(p, VariantCoarse, Config{Workers: 1})
	for _, impl := range maxplus.Impls() {
		cfg := Config{Workers: 4, Map: MapPacked, TileI2: 3, TileK2: 5}
		cfg.SetKernels(impl)
		for _, v := range []Variant{VariantFine, VariantHybrid, VariantHybridTiled} {
			tablesEqual(t, p, ref, Solve(p, v, cfg), fmt.Sprintf("packed %s kernels=%s", v, impl))
		}
		wt := SolveWindowed(p, 4, 30, cfg)
		eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
			if wt.InWindow(i1, j1, i2, j2) && wt.At(i1, j1, i2, j2) != ref.At(i1, j1, i2, j2) {
				t.Fatalf("windowed kernels=%s: F[%d,%d,%d,%d] = %v, want %v",
					impl, i1, j1, i2, j2, wt.At(i1, j1, i2, j2), ref.At(i1, j1, i2, j2))
			}
		})
	}
}

// TestUnrolledKernelAgrees: a fill on the Go kernels streams through the
// 8-way unrolled loop — what every portable build runs. Rows of 19 cells take
// its main loop and its scalar tail; the table must equal the oracle's.
func TestUnrolledKernelAgrees(t *testing.T) {
	p := newTestProblem(t, 5, 8, 19)
	var cfg Config
	cfg.SetKernels("go")
	tablesEqual(t, p, Solve(p, VariantReference, Config{}), Solve(p, VariantHybridTiled, cfg), "unrolled")
}

// TestR2ClosureMatchesRefDP holds finalize's one-hop R2 closure to refDP,
// cell for cell, on every parity model, each exact on the 2⁻⁸ grid: on the
// box and packed maps and on a band of the packed one, at one worker and at
// two (which finalize distinct triangles at once, each through its own row
// of the closure's scratch), fresh and pooled. Then the range: a problem
// whose sums are exact is filled, to refDP's table, and one whose sums can
// round is refused by the solver, with no second form to fall back to.
func TestR2ClosureMatchesRefDP(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	s1, s2 := rna.Random(rng, 6), rna.Random(rng, 70)
	ctx := context.Background()
	for _, model := range parityModels {
		p, err := NewProblem(s1, s2, model.params)
		if err != nil {
			t.Fatal(err)
		}
		ref, pl := newRefDP(p), NewPool()
		for _, shape := range []struct {
			name   string
			kind   MapKind
			w1, w2 int
		}{{"box", MapBox, p.N1, p.N2}, {"packed", MapPacked, p.N1, p.N2}, {"band", MapPacked, 4, 23}} {
			for _, workers := range []int{1, 2} {
				for _, pool := range []*Pool{nil, pl} {
					label := fmt.Sprintf("%s/%s/workers=%d/pooled=%v", model.name, shape.name, workers, pool != nil)
					cfg := Config{Workers: workers, Map: shape.kind, Pool: pool}
					ft, err := newSolver(p, cfg, shape.w1, shape.w2).fill(ctx, VariantHybridTiled, "hybrid-tiled")
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
						if !ft.InWindow(i1, j1, i2, j2) {
							return
						}
						if got, want := ft.At(i1, j1, i2, j2), ref.f(i1, j1, i2, j2); got != want {
							t.Fatalf("%s: F[%d,%d,%d,%d] = %v, refDP %v", label, i1, j1, i2, j2, got, want)
						}
					})
					ft.Release()
				}
			}
		}
		if st := pl.Stats(); st.Buffers.Live != 0 {
			t.Fatalf("%s: leaked %d pooled buffers", model.name, st.Buffers.Live)
		}
	}

	fractionalInter := score.DefaultParams()
	inter := score.Custom("inter", map[[2]rna.Base]score.Value{{rna.G, rna.C}: 1.5})
	fractionalInter.InterModel = &inter
	for _, c := range []struct {
		name   string
		params score.Params
		n      int // both strands
		exact  bool
	}{
		{"default", score.DefaultParams(), 16, true},
		{"fractional", customParams(2.75, 1.25, 0.5), 16, true},
		{"fractional intermolecular", fractionalInter, 16, true},
		{"negative integer", customParams(3, 2, -1), 16, true},
		{"weight × length below 2²⁴", customParams(1<<20, 2, 1), 15, true},
		{"weight × length at 2²⁴", customParams(1<<20, 2, 1), 16, false},
		{"negative weight × length at 2²⁴", customParams(3, -1<<20, 1), 16, false},
		{"2⁻⁸ units × length below 2²⁴", customParams(1<<12, 1.7, 0.3), 15, true},
		{"2⁻⁸ units × length at 2²⁴", customParams(1<<12, 1.7, 0.3), 16, false},
	} {
		p, err := NewProblem(rna.Random(rng, c.n), rna.Random(rng, c.n), c.params)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := SolveContext(ctx, p, VariantHybridTiled, Config{Workers: 1})
		wt, werr := SolveWindowedContext(ctx, p, 4, 4, Config{Workers: 1})
		if !c.exact {
			if !errors.Is(err, errInexact) || ft != nil || !errors.Is(werr, errInexact) || wt != nil {
				t.Errorf("%s weights, %d+%d nt: err %v, windowed err %v; want both refused", c.name, c.n, c.n, err, werr)
			}
			continue
		}
		if err != nil || werr != nil {
			t.Fatalf("%s weights, %d+%d nt: err %v, windowed err %v", c.name, c.n, c.n, err, werr)
		}
		tablesEqual(t, p, Solve(p, VariantReference, Config{}), ft, c.name)
	}
}

// TestR2StarMatchesLogDomain: a partition fill solves R2 in one sweep a row
// against strand 2's star table. Every kernel body and the pooled fill leave
// equal cells (==), and the table is held cell for cell to the log-domain
// top-down oracle, which chains R2 as the recurrence states it, to 1e-12
// relative — on the box and packed maps, at one worker and at two.
func TestR2StarMatchesLogDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p, err := NewProblem(rna.Random(rng, 4), rna.Random(rng, 45), score.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ps := buildTestPartitionSub(t, p, 1)
	if !ps.Scaled() {
		t.Fatal("substrate fell back to the log domain")
	}
	ctx := context.Background()
	oracle, err := SolvePartitionContext(ctx, p, ps, VariantReference, Config{})
	if err != nil || oracle.Scaled() {
		t.Fatalf("oracle: %v (scaled %v)", err, err == nil && oracle.Scaled())
	}
	pl := NewPool()
	for _, kind := range []MapKind{MapBox, MapPacked} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%v/workers=%d", kind, workers)
			fill := func(impl string, pool *Pool) *FTableOf[float64] {
				cfg := Config{Workers: workers, Map: kind, Pool: pool}
				cfg.SetKernels(impl)
				ft, err := SolvePartitionContext(ctx, p, ps, VariantHybridTiled, cfg)
				if err != nil || !ft.Scaled() {
					t.Fatalf("%s on %q: %v (scaled %v)", label, impl, err, ft != nil && ft.Scaled())
				}
				return ft
			}
			want := fill("go", nil)
			for _, impl := range append(maxplus.Impls(), "") {
				pool := pl
				if impl != "" {
					pool = nil // "": pooled, on the process's body
				}
				got := fill(impl, pool)
				eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
					if g, w := got.At(i1, j1, i2, j2), want.At(i1, j1, i2, j2); g != w {
						t.Fatalf("%s: F[%d,%d,%d,%d] = %v on %q (pooled %v), %v on the Go loops",
							label, i1, j1, i2, j2, g, impl, pool != nil, w)
					}
				})
				got.Release()
			}
			eachCell(p.N1, p.N2, func(i1, j1, i2, j2 int) {
				closeRel(t, oracle.LogAt(i1, j1, i2, j2), want.LogAt(i1, j1, i2, j2), 1e-12, label+" against the log-domain oracle")
			})
		}
	}
	if st := pl.Stats(); st.Buffers.Live != 0 {
		t.Fatalf("leaked %d pooled buffers", st.Buffers.Live)
	}
}

// TestScopedEngineWidthAgrees: every schedule at width 3, on the engine the
// solve scopes to itself (no Engine configured), equals its width-1 table,
// which needs no engine at all.
func TestScopedEngineWidthAgrees(t *testing.T) {
	p := newTestProblem(t, 6, 9, 11)
	for _, v := range Variants {
		one := Solve(p, v, Config{Workers: 1})
		got := Solve(p, v, Config{Workers: 3})
		tablesEqual(t, p, one, got, fmt.Sprintf("%v/scoped-3", v))
	}
}

func TestRandomConfigurationsQuick(t *testing.T) {
	// One combined property test: any variant under any configuration
	// equals the oracle on a random small instance.
	f := func(seed int64, rawV, rawW, rawTi, rawTk, rawTj uint8, packed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 1 + rng.Intn(7)
		n2 := 1 + rng.Intn(7)
		p, err := NewProblem(rna.Random(rng, n1), rna.Random(rng, n2), score.DefaultParams())
		if err != nil {
			return false
		}
		v := Variants[int(rawV)%len(Variants)]
		cfg := Config{
			Workers: 1 + int(rawW)%4,
			TileI2:  1 + int(rawTi)%8,
			TileK2:  1 + int(rawTk)%8,
			TileJ2:  int(rawTj) % 8,
		}
		if packed {
			cfg.Map = MapPacked
		}
		ref := Solve(p, VariantReference, Config{})
		got := Solve(p, v, cfg)
		for i1 := 0; i1 < n1; i1++ {
			for j1 := i1; j1 < n1; j1++ {
				for i2 := 0; i2 < n2; i2++ {
					for j2 := i2; j2 < n2; j2++ {
						if ref.At(i1, j1, i2, j2) != got.At(i1, j1, i2, j2) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSingleBasePair(t *testing.T) {
	// One G against one C: the only structure is the intermolecular pair,
	// F = iscore = 3.
	p, err := NewProblem(rna.MustNew("G"), rna.MustNew("C"), score.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	f := Solve(p, VariantHybridTiled, Config{})
	if got := p.Score(f); got != 3 {
		t.Errorf("G×C score = %v, want 3", got)
	}
	// G against A: nothing pairs, score 0 (not NegInf).
	p2, _ := NewProblem(rna.MustNew("G"), rna.MustNew("A"), score.DefaultParams())
	if got := p2.Score(Solve(p2, VariantBase, Config{})); got != 0 {
		t.Errorf("G×A score = %v, want 0", got)
	}
}

func TestKnownDuplex(t *testing.T) {
	// GGG × CCC: three intermolecular GC pairs, weight 9, beats any
	// intramolecular option (GG and CC cannot pair internally).
	p, _ := NewProblem(rna.MustNew("GGG"), rna.MustNew("CCC"), score.DefaultParams())
	if got := p.Score(Solve(p, VariantHybrid, Config{})); got != 9 {
		t.Errorf("GGG×CCC = %v, want 9", got)
	}
}

func TestScoreLowerBoundS1S2(t *testing.T) {
	// F >= S1 + S2: the two strands can always just fold independently.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTestProblem(t, seed, 2+rng.Intn(8), 2+rng.Intn(8))
		f := Solve(p, VariantHybridTiled, Config{})
		lower := p.S1.At(0, p.N1-1) + p.S2.At(0, p.N2-1)
		if got := p.Score(f); got < lower {
			t.Errorf("seed %d: F = %v < S1+S2 = %v", seed, got, lower)
		}
	}
}

func TestInteractionDisabledDegeneracy(t *testing.T) {
	// With intermolecular pairing forbidden, F must equal S1+S2 exactly:
	// no joint structure can beat independent folding.
	inter := score.Forbidden("nointer")
	params := score.DefaultParams()
	params.InterModel = &inter
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s1 := rna.Random(rng, 2+rng.Intn(7))
		s2 := rna.Random(rng, 2+rng.Intn(7))
		p, err := NewProblem(s1, s2, params)
		if err != nil {
			t.Fatal(err)
		}
		f := Solve(p, VariantHybrid, Config{})
		want := p.S1.At(0, p.N1-1) + p.S2.At(0, p.N2-1)
		if got := p.Score(f); got != want {
			t.Errorf("seed %d: F = %v, want S1+S2 = %v", seed, got, want)
		}
	}
}

func TestSwapSymmetry(t *testing.T) {
	// BPMax is symmetric in its two sequences: folding (s1, s2) and
	// (s2, s1) give the same total score.
	refills := 0
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s1 := rna.Random(rng, 2+rng.Intn(7))
		s2 := rna.Random(rng, 2+rng.Intn(7))
		pa, _ := NewProblem(s1, s2, score.DefaultParams())
		pb, _ := NewProblem(s2, s1, score.DefaultParams())
		a := pa.Score(Solve(pa, VariantHybrid, Config{}))
		b := pb.Score(Solve(pb, VariantHybrid, Config{}))
		if a != b {
			t.Errorf("seed %d: F(s1,s2)=%v != F(s2,s1)=%v", seed, a, b)
		}
		// The partition algebra sums over the same structures, so it is as
		// symmetric: logZ agrees up to the rounding of a different summation
		// order, and each strand's own logZ — one strand's table, built the
		// same way whichever slot it sits in — swaps exactly. kT = 1 fills in
		// the scaled domain; at the small kT the fill's range guard trips and
		// the table is refilled in the log domain.
		for _, kT := range []float64{1, 0.005} {
			za, za1, za2, fa := partitionLogZs(t, pa, kT)
			zb, zb1, zb2, _ := partitionLogZs(t, pb, kT)
			if kT == 1 && !fa.Scaled() {
				t.Errorf("seed %d: kT 1 left the scaled domain", seed)
			}
			if fa.GuardRefilled() {
				refills++
			}
			if math.Abs(za-zb) > 1e-9*math.Abs(za) {
				t.Errorf("seed %d kT %g: logZ(s1,s2)=%v, logZ(s2,s1)=%v", seed, kT, za, zb)
			}
			if za1 != zb2 || za2 != zb1 {
				t.Errorf("seed %d kT %g: strand logZ (%v, %v) did not swap to (%v, %v)", seed, kT, za1, za2, zb2, zb1)
			}
		}
	}
	if refills == 0 {
		t.Error("no seed took the log-domain refill; the small kT was chosen to cover it")
	}
}

// partitionLogZs folds p in the partition algebra and returns logZ, the two
// strands' own logZ, and the table (for the domain it came back in).
func partitionLogZs(t *testing.T, p *Problem, kT float64) (z, z1, z2 float64, ft *FTableOf[float64]) {
	t.Helper()
	ps, err := BuildPartitionSub(context.Background(), p, kT)
	if err != nil {
		t.Fatal(err)
	}
	if ft, err = SolvePartitionContext(context.Background(), p, ps, VariantHybrid, Config{}); err != nil {
		t.Fatal(err)
	}
	return PartitionLogZ(p, ft), ps.S1.LogAt(0, p.N1-1), ps.S2.LogAt(0, p.N2-1), ft
}

func TestTableMonotonicity(t *testing.T) {
	// Widening either interval can only increase F.
	p := newTestProblem(t, 42, 7, 7)
	f := Solve(p, VariantHybrid, Config{})
	for i1 := 0; i1 < p.N1; i1++ {
		for j1 := i1; j1 < p.N1; j1++ {
			for i2 := 0; i2 < p.N2; i2++ {
				for j2 := i2; j2 < p.N2; j2++ {
					v := f.At(i1, j1, i2, j2)
					if v < 0 {
						t.Fatalf("F[%d,%d,%d,%d] = %v < 0", i1, j1, i2, j2, v)
					}
					if j2+1 < p.N2 && f.At(i1, j1, i2, j2+1) < v {
						t.Fatalf("F not monotone in j2 at (%d,%d,%d,%d)", i1, j1, i2, j2)
					}
					if j1+1 < p.N1 && f.At(i1, j1+1, i2, j2) < v {
						t.Fatalf("F not monotone in j1 at (%d,%d,%d,%d)", i1, j1, i2, j2)
					}
				}
			}
		}
	}
}

func TestHairpinPlusTargetInteraction(t *testing.T) {
	// A hairpin folded on its own vs. interacting with its own reverse
	// complement: interaction can only help (monotone under adding a
	// partner), and the score must be at least S1.
	rng := rand.New(rand.NewSource(8))
	s1 := rna.Hairpin(rng, 5, 3)
	s2 := s1.ReverseComplement()
	p, err := NewProblem(s1, s2, score.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	f := Solve(p, VariantHybridTiled, Config{Workers: 2})
	if got := p.Score(f); got < p.S1.At(0, p.N1-1) {
		t.Errorf("interaction score %v < single-strand %v", got, p.S1.At(0, p.N1-1))
	}
}

func TestThinProblems(t *testing.T) {
	// Degenerate widths (1×n, n×1) exercise the boundary cases heavily.
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {1, 1}, {2, 1}, {1, 2}} {
		p := newTestProblem(t, 55, dims[0], dims[1])
		ref := Solve(p, VariantReference, Config{})
		for _, v := range Variants {
			got := Solve(p, v, Config{Workers: 2})
			tablesEqual(t, p, ref, got, v.String())
		}
	}
}

func TestProblemAtBoundarySemantics(t *testing.T) {
	p := newTestProblem(t, 1, 4, 5)
	f := Solve(p, VariantBase, Config{})
	// Empty seq1 interval: F = S2.
	if got := p.at(f, 2, 1, 0, 3); got != p.S2.At(0, 3) {
		t.Errorf("empty seq1: %v, want %v", got, p.S2.At(0, 3))
	}
	// Empty seq2 interval: F = S1.
	if got := p.at(f, 0, 3, 4, 3); got != p.S1.At(0, 3) {
		t.Errorf("empty seq2: %v, want %v", got, p.S1.At(0, 3))
	}
	// Both empty: 0 (S2 of empty interval).
	if got := p.at(f, 3, 2, 4, 3); got != 0 {
		t.Errorf("both empty: %v, want 0", got)
	}
}

// TestPaddedStrandsMatchRefDP: a strand of at least nussinov.SequentialCutoff
// bases gets an S table on a padded row pitch, and every solver reader of S —
// s1At, s2At, s2Row, the sweeps' s2off over S² as R1/R2 operand and as its
// own star — must stride by that pitch. The oracle reads S through the
// table's own At, so a reader striding by N parts from it; so does the
// generic oracle, which reads S through s1At and s2At. Strand 2 long: a full
// fold, checked on the intervals at
// either end of strand 2 (the oracles recurse only inside an interval).
// Strand 1 long: a band, checked whole.
func TestPaddedStrandsMatchRefDP(t *testing.T) {
	ctx, n, edge := context.Background(), nussinov.SequentialCutoff+5, 24
	p := newTestProblem(t, 37, 2, n)
	if p.S2.Pitch() == n {
		t.Fatalf("a %d-nt strand kept pitch N", n)
	}
	ref, a := newRefDP(p), maxplusAlg(p, Config{})
	gen := newRefDPG(&a)
	for _, lo := range []int{0, n - edge} {
		eachCell(2, edge, func(i1, j1, i2, j2 int) {
			if got, want := gen.f(i1, j1, lo+i2, lo+j2), ref.f(i1, j1, lo+i2, lo+j2); got != want {
				t.Fatalf("generic oracle: F[%d,%d,%d,%d] = %v, oracle %v", i1, j1, lo+i2, lo+j2, got, want)
			}
		})
	}
	f, err := SolveContext(ctx, p, VariantHybridTiled, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lo := range []int{0, n - edge} {
		eachCell(2, edge, func(i1, j1, i2, j2 int) {
			if got, want := f.At(i1, j1, lo+i2, lo+j2), ref.f(i1, j1, lo+i2, lo+j2); got != want {
				t.Fatalf("F[%d,%d,%d,%d] = %v, oracle %v", i1, j1, lo+i2, lo+j2, got, want)
			}
		})
	}
	q := newTestProblem(t, 38, n, 3)
	if q.S1.Pitch() == n {
		t.Fatalf("a %d-nt strand kept pitch N", n)
	}
	const w1 = 4
	w, ref := SolveWindowed(q, w1, 3, Config{}), newRefDP(q)
	for i1 := 0; i1 < n; i1++ {
		for j1 := i1; j1 < n && j1-i1 < w1; j1++ {
			eachCell(1, 3, func(_, _, i2, j2 int) {
				if got, want := w.At(i1, j1, i2, j2), ref.f(i1, j1, i2, j2); got != want {
					t.Fatalf("band: F[%d,%d,%d,%d] = %v, oracle %v", i1, j1, i2, j2, got, want)
				}
			})
		}
	}
}
