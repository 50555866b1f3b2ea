package nussinov

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// workersFor is ForkJoin with a real loop at one worker: the tiled driver
// needs a ParallelFor even to run its wavefronts inline.
func workersFor(w int) ParallelFor {
	if pf := ForkJoin(w); pf != nil {
		return pf
	}
	return func(ctx context.Context, n int, f func(i int)) error {
		for i := 0; i < n; i++ {
			f(i)
		}
		return ctx.Err()
	}
}

// formName labels a max-plus fill's form: FillContext's exact.
func formName(exact bool) string {
	if exact {
		return "closure"
	}
	return "walk"
}

// tableBytes views a table's whole bounding box — boundary cells included —
// as bytes, so a comparison is bit-identity and not float equality.
func tableBytes[T semiring.Scalar](data []T) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*int(unsafe.Sizeof(data[0])))
}

// dense is a table's cells without its pitch's padding, N×N row-major: the
// layout of the per-cell reference's storage.
func dense[T semiring.Scalar](t *GTable[T]) []T {
	out := make([]T, 0, t.N*t.N)
	for i := 0; i < t.N; i++ {
		out = append(out, t.Row(i)...)
	}
	return out
}

func requireSameBytes(t *testing.T, label string, n int, got, want []float32) {
	t.Helper()
	if bytes.Equal(tableBytes(got), tableBytes(want)) {
		return
	}
	for idx := range want {
		if math.Float32bits(got[idx]) != math.Float32bits(want[idx]) {
			t.Fatalf("%s: S[%d,%d] = %v, per-cell reference %v", label, idx/n, idx%n, got[idx], want[idx])
		}
	}
	t.Fatalf("%s: table sizes differ (%d vs %d cells)", label, len(got), len(want))
}

// differentialSizes are every small table plus the sizes around the AVX2
// kernels' 8-lane grid edges and masked tails, and one table of several
// production-size tile rows.
func differentialSizes() []int {
	var sizes []int
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, 63, 64, 65, 127, 128, 129, 255, 256, 257, 600)
}

// differentialScores are the score shapes the serving path produces: the
// three stock models, a model with fractional (dyadic, so float32-exact)
// weights the Four-Russians capability does not cover, and base-pair scores
// with near-diagonal pairs masked by a minimum hairpin loop.
func differentialScores(seq rna.Sequence) map[string]ScoreFunc {
	fractional := score.Custom("fractional", map[[2]rna.Base]score.Value{
		{rna.G, rna.C}: 2.75, {rna.A, rna.U}: 1.25, {rna.G, rna.U}: 0.5,
	})
	hairpin := score.Build(seq, rna.Sequence{}, score.Params{Model: score.BasePair(), MinHairpin: 3})
	return map[string]ScoreFunc{
		"basepair":   scoreFor(seq, score.BasePair()),
		"unit":       scoreFor(seq, score.Unit()),
		"forbidden":  scoreFor(seq, score.Forbidden("forbidden")),
		"fractional": scoreFor(seq, fractional),
		"minhairpin": func(i, j int) float32 { return hairpin.Score1(i, j) },
	}
}

// integerShapes are the differentialScores whose weights are integers, the
// shapes the closure form may fill (every sum exact at these sizes).
var integerShapes = map[string]bool{"basepair": true, "unit": true, "forbidden": true, "minhairpin": true}

// TestStreamedMatchesReference is the bit-identity gate of the streamed fill:
// on every size, score shape, kernel body and form — the per-split walk on
// every shape, the closure sweep on the integer ones — in each layout and
// order FillContext can choose (dense rows; padded tiles, inline and on 1–4
// workers), the table is byte-equal to the per-cell reference's, and a
// traceback over it reaches S[0, n-1]. The padded tables are laid out at the
// pitch a cutoff of 0 gives, which differs from N at every size here but 64
// and 128. The float64 sum-product GTable — whose per-cell reference
// associates ⊕ differently, so is only close — is held byte-equal across its
// two kernel bodies instead.
func TestStreamedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kernels := map[string]semiring.Kernels[float32]{
		semiring.MaxPlusKernels(true).Impl: semiring.MaxPlusKernels(true), // what Build binds: avx2 where the process has it
		"go":                               semiring.MaxPlusKernelsGo(),
		"go-unrolled":                      semiring.MaxPlusKernelsOf("go"), // what Build binds elsewhere
	}
	// The scaled partition substrate's fill: Boltzmann factors damped by
	// e^{-σ} per nucleotide under its first-pass σ, inexact products throughout.
	sumProduct := func(n int, k semiring.Kernels[float64], sc ScoreFunc, mfe float32) []float64 {
		const kT = 0.7
		sigma := float64(mfe)/(kT*float64(max(n, 1))) + 0.9
		g := NewGTable[float64](n)
		_ = g.FillContext(context.Background(), k, math.Exp(-sigma), ScoreRows(n, func(i, j int) float64 { // Background never cancels
			if w := sc(i, j); w > semiring.NegInf/2 {
				return math.Exp(float64(w)/kT - 2*sigma)
			}
			return 0
		}), false, nil)
		return g.data
	}
	padded := 0
	for _, n := range differentialSizes() {
		seq := rna.Random(rng, n)
		// Tiles of 8 cut even the small tables into several block-rows; 64
		// keeps the 600-nt case at ten.
		tile := 8
		if n > 40 {
			tile = 64
		}
		for name, sc := range differentialScores(seq) {
			want := ReferenceBuild(n, sc).data
			if n > 0 {
				sp, mfe := semiring.SumProductKernels(), want[n-1]
				got, goLoops := sumProduct(n, sp, sc, mfe), sumProduct(n, semiring.SumProductKernelsOf("go"), sc, mfe)
				if z := got[n-1]; !(z > 0) || math.IsInf(z, 1) {
					t.Fatalf("n=%d %s: the scaled strand sum is %g: the comparison would be of zeros or Infs", n, name, z)
				}
				if !bytes.Equal(tableBytes(got), tableBytes(goLoops)) {
					t.Fatalf("n=%d %s: the float64 sum-product table on the %s kernels differs from the Go loops'", n, name, sp.Impl)
				}
			}
			for impl, k := range kernels {
				for _, exact := range []bool{false, true} {
					if exact && !integerShapes[name] {
						continue
					}
					label := fmt.Sprintf("n=%d %s %s %s", n, name, impl, formName(exact))
					rows, err := BuildTiled(context.Background(), n, tile, n+1, k, sc, exact, nil)
					if err != nil {
						t.Fatal(err)
					}
					if rows.Closed() != exact || rows.Pitch() != n {
						t.Fatalf("%s: Closed() = %v, Pitch() = %d", label, rows.Closed(), rows.Pitch())
					}
					requireSameBytes(t, label+" rows", n, dense(rows), want)
					got, err := BuildTiled(context.Background(), n, tile, 0, k, sc, exact, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Pitch() != n {
						padded++
					}
					requireSameBytes(t, label+" inline tiles", n, dense(got), want)
					for _, tb := range []*Table{rows, got} {
						if n > 0 {
							if w := PairsWeight(tb.Traceback(sc), sc); w != tb.At(0, n-1) {
								t.Fatalf("%s pitch %d: traceback weight %v, S[0,%d] = %v", label, tb.Pitch(), w, n-1, tb.At(0, n-1))
							}
						}
					}
					for workers := 1; workers <= 4; workers++ {
						par, err := BuildTiled(context.Background(), n, tile, 0, k, sc, exact, workersFor(workers))
						if err != nil {
							t.Fatalf("%s workers=%d: %v", label, workers, err)
						}
						requireSameBytes(t, fmt.Sprintf("%s tiled workers=%d", label, workers), n, dense(par), want)
					}
					if !exact || n > 257 {
						continue
					}
					// Small tiles put tiles at block distance d ≥ 2, which
					// take their cross-tile splits as one Product, at the
					// oracle's sizes, a multiple of the tile or not
					// (TestClosureMatchesWalkAtProductionSizes takes the
					// production tile further).
					for _, small := range []int{4, 8, 16} {
						for _, pfor := range []ParallelFor{nil, ForkJoin(2)} {
							got, err := BuildTiled(context.Background(), n, small, 0, k, sc, true, pfor)
							if err != nil {
								t.Fatal(err)
							}
							requireSameBytes(t, fmt.Sprintf("%s tile %d parallel %v", label, small, pfor != nil), n, dense(got), want)
						}
					}
				}
			}
		}
	}
	if padded == 0 {
		t.Fatal("no table was laid out with pitch ≠ N")
	}
}

// TestBuildParallelTilesAtCutoff drives the production build call at the
// first size it pads and tiles (production pitch and tile edge, inline and
// on real workers) against a dense row-order build; the per-cell oracle is
// out of reach at this size.
func TestBuildParallelTilesAtCutoff(t *testing.T) {
	n := SequentialCutoff + 3
	sc := scoreFor(rna.Random(rand.New(rand.NewSource(5)), n), score.BasePair())
	want, err := BuildTiled(context.Background(), n, tileEdge, n+1, semiring.MaxPlusKernels(true), sc, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, exact := range []bool{false, true} {
		for _, pfor := range []ParallelFor{nil, ForkJoin(3)} {
			got, err := BuildContext(context.Background(), n, sc, exact, pfor)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pitch() != PitchOf(n, 4) || got.Pitch() == n {
				t.Fatalf("a table of %d positions has pitch %d", n, got.Pitch())
			}
			requireSameBytes(t, fmt.Sprintf("tiled at the cutoff, %s, parallel %v", formName(exact), pfor != nil), n, dense(got), want.data)
		}
	}
}

// TestClosureMatchesWalkAtProductionSizes holds the production build call's
// closure form — closureTile tiles, the block product in every tile at block
// distance d ≥ 2 — to its per-split walk bit for bit from the cutoff up, on
// every kernel body, inline and on two workers, at sizes a multiple of the
// tile and not.
func TestClosureMatchesWalkAtProductionSizes(t *testing.T) {
	for _, n := range []int{SequentialCutoff, 1024, 1100, 1300} {
		sc := scoreFor(rna.Random(rand.New(rand.NewSource(int64(n))), n), score.BasePair())
		walk, err := BuildContext(context.Background(), n, sc, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, impl := range maxplus.Impls() {
			if impl == "go" && n != 1100 {
				continue // the portable product streams a row a split: one size is enough
			}
			for _, pfor := range []ParallelFor{nil, ForkJoin(2)} {
				g := NewGTable[float32](n)
				if err := g.FillContext(context.Background(), semiring.MaxPlusKernelsOf(impl), 0, ScoreRows(n, sc), true, pfor); err != nil {
					t.Fatal(err)
				}
				requireSameBytes(t, fmt.Sprintf("%d nt closure on %s, parallel %v", n, impl, pfor != nil), n, dense(g), dense(walk))
			}
		}
	}
}

// TestStreamedLogZWithinBound: the float64 fills see the same candidate
// multiset as the per-cell reference with ⊕ re-associated, so the strand's
// log partition value moves by rounding only — inside 16·n·2⁻⁵³ relative, in
// the log domain and in the scaled linear one.
func TestStreamedLogZWithinBound(t *testing.T) {
	for _, n := range []int{64, 256} {
		sc := randScore(int64(n), n)
		kT := 0.7
		logw := func(i, j int) float64 {
			if w := sc(i, j); w > semiring.NegInf/2 {
				return float64(w) / kT
			}
			return math.Inf(-1)
		}
		tol := 16 * float64(n) * 0x1p-53
		lse := semiring.LogSumExpKernels()
		want := ReferenceBuildG(n, lse, lse.One, logw).At(0, n-1)
		if got := BuildG(n, lse, logw).At(0, n-1); math.Abs(got-want) > tol*math.Abs(want) {
			t.Errorf("n=%d log-sum-exp: LogZ %v, reference %v (rel %g, bound %g)", n, got, want, math.Abs(got-want)/math.Abs(want), tol)
		}
		sigma := want / float64(n)
		sp := semiring.SumProductKernels()
		factor := func(i, j int) float64 { return math.Exp(logw(i, j) - 2*sigma) }
		ref := math.Log(ReferenceBuildG(n, sp, math.Exp(-sigma), factor).At(0, n-1)) + sigma*float64(n)
		tbl := NewGTable[float64](n)
		if err := tbl.FillContext(context.Background(), sp, math.Exp(-sigma), ScoreRows(n, factor), false, nil); err != nil {
			t.Fatal(err)
		}
		if got := math.Log(tbl.At(0, n-1)) + sigma*float64(n); math.Abs(got-ref) > tol*math.Abs(ref) {
			t.Errorf("n=%d scaled sum-product: LogZ %v, reference %v (rel %g, bound %g)", n, got, ref, math.Abs(got-ref)/math.Abs(ref), tol)
		}
	}
}

// TestScoreCalledOncePerCell: every fill calls score(i, j) exactly once for
// each i < j and never elsewhere — the scaled partition build's inWindow
// guard rides on that closure.
func TestScoreCalledOncePerCell(t *testing.T) {
	const n = 37
	base := randScore(3, n)
	check := func(label string, run func(sc ScoreFunc)) {
		calls := make([]int32, n*n)
		run(func(i, j int) float32 { calls[i*n+j]++; return base(i, j) })
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := int32(0)
				if i < j {
					want = 1
				}
				if calls[i*n+j] != want {
					t.Fatalf("%s: score(%d, %d) called %d times, want %d", label, i, j, calls[i*n+j], want)
				}
			}
		}
	}
	check("Build", func(sc ScoreFunc) { Build(n, sc) })
	for _, exact := range []bool{false, true} {
		check("serial "+formName(exact), func(sc ScoreFunc) {
			if _, err := BuildContext(context.Background(), n, sc, exact, nil); err != nil {
				t.Fatal(err)
			}
		})
		// One worker: the counting closure is not synchronized.
		check("tiled "+formName(exact), func(sc ScoreFunc) {
			if _, err := BuildTiled(context.Background(), n, 8, 0, semiring.MaxPlusKernels(false), sc, exact, workersFor(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	check("log-sum-exp", func(sc ScoreFunc) {
		lse := semiring.LogSumExpKernels()
		BuildG(n, lse, func(i, j int) float64 { return float64(sc(i, j)) })
	})
}

// TestCancelStopsWithinOneRow: ctx is polled once per row (once per tile
// wavefront when tiled), so a cancel costs at most one more O(n²) step, and
// a cancelled build hands back no table.
func TestCancelStopsWithinOneRow(t *testing.T) {
	const n, cancelRow = 48, 30
	base := randScore(4, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topRow := n // the topmost (smallest-index) row the fill reached
	sc := func(i, j int) float32 {
		if i == cancelRow {
			cancel()
		}
		topRow = min(topRow, i)
		return base(i, j)
	}
	tbl, err := BuildContext(ctx, n, sc, true, nil)
	if !errors.Is(err, context.Canceled) || tbl != nil {
		t.Fatalf("serial: table %v, err %v; want nil, context.Canceled", tbl, err)
	}
	if topRow != cancelRow {
		t.Fatalf("serial: rows up to %d were seeded after a cancel in row %d", topRow, cancelRow)
	}
	g := NewGTable[float32](n)
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := g.FillContext(ctx2, semiring.MaxPlusKernels(false), 0, ScoreRows(n, base), false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("FillContext on a cancelled context: %v", err)
	}

	// Tiled, one worker: cancelling inside the first wavefront (the diagonal
	// tiles) must keep every later wavefront from starting.
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	offDiagonal := 0
	sc3 := func(i, j int) float32 {
		cancel3()
		if i/8 != j/8 {
			offDiagonal++
		}
		return base(i, j)
	}
	tbl, err = BuildTiled(ctx3, n, 8, 0, semiring.MaxPlusKernels(false), sc3, true, workersFor(1))
	if !errors.Is(err, context.Canceled) || tbl != nil {
		t.Fatalf("tiled: table %v, err %v; want nil, context.Canceled", tbl, err)
	}
	if offDiagonal != 0 {
		t.Fatalf("tiled: %d off-diagonal cells seeded after a cancel in the first wavefront", offDiagonal)
	}
}

// TestResetThenFillIsAFreshBuild: a pooled table whose storage is dirty —
// larger, and full of garbage, its closure scratch sized for another strand —
// is byte-equal to a fresh build after Reset and a fill, boundary cells
// included, in either form.
func TestResetThenFillIsAFreshBuild(t *testing.T) {
	const n = 29
	sc := randScore(9, n)
	fresh := Build(n, sc)
	reused := NewGTable[float32](n + 13)
	if err := reused.FillContext(context.Background(), semiring.MaxPlusKernels(true), 0, ScoreRows(n+13, randScore(10, n+13)), true, nil); err != nil {
		t.Fatal(err)
	}
	for _, exact := range []bool{true, false, true} {
		for i := range reused.data {
			reused.data[i] = float32(math.NaN())
		}
		reused.Reset(n)
		if err := reused.FillContext(context.Background(), semiring.MaxPlusKernels(true), 0, ScoreRows(n, sc), exact, nil); err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "Table "+formName(exact), n, reused.data, fresh.data)
	}

	// The tiled closure at a tile edge of 4: its tiles at block distance d ≥ 2
	// fold a Product into their cells, which must be Zero by then, not NaN.
	k, ctx := semiring.MaxPlusKernels(true), context.Background()
	tiled := NewGTable[float32](n + 13)
	if err := tiled.fillContext(ctx, k, 0, ScoreRows(n+13, randScore(10, n+13)), true, nil, 0, 4); err != nil {
		t.Fatal(err)
	}
	stale := tiled.data[:cap(tiled.data)]
	for i := range stale {
		stale[i] = float32(math.NaN())
	}
	tiled.Reset(n)
	if err := tiled.fillContext(ctx, k, 0, ScoreRows(n, sc), true, nil, 0, 4); err != nil {
		t.Fatal(err)
	}
	want, err := BuildTiled(ctx, n, 4, 0, k, sc, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &tiled.data[0] != &stale[0] || tiled.Pitch() == n {
		t.Fatalf("the tiled refill did not reuse the padded storage (pitch %d)", tiled.Pitch())
	}
	requireSameBytes(t, "Table, tiled closure", n, dense(tiled), dense(want))

	lse := semiring.LogSumExpKernels()
	logw := func(i, j int) float64 { return float64(sc(i, j)) }
	freshG := BuildG(n, lse, logw)
	reusedG := NewGTable[float64](n + 13)
	for i := range reusedG.data {
		reusedG.data[i] = math.NaN()
	}
	reusedG.Reset(n)
	if err := reusedG.FillContext(context.Background(), lse, lse.One, ScoreRows(n, logw), false, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(reusedG.data), tableBytes(freshG.data)) {
		t.Fatal("GTable: Reset + Fill differs from a fresh build")
	}
}

// TestClosureSkipsDominatedSplits drives the closure form through the
// fillContext seam where its products skip dominated splits: tiles of 4, 64
// and 256, tables of three block-columns and more, a multiple of the tile or
// not, on every kernel body, inline and on two workers. Each table is filled
// over the live words and tile bit-sets of another strand's fill, then again
// over random ones, and must equal the per-split walk and the per-cell oracle
// bit for bit.
func TestClosureSkipsDominatedSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, c := range []struct{ tile, n int }{{4, 12}, {4, 37}, {4, 130}, {64, 192}, {64, 300}, {256, 768}, {256, 900}} {
		seq := rna.Random(rng, c.n)
		sc := scoreFor(seq, score.BasePair())
		want := ReferenceBuild(c.n, sc)
		walk, err := BuildTiled(context.Background(), c.n, c.tile, 0, semiring.MaxPlusKernels(true), sc, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, fmt.Sprintf("n=%d tile %d walk", c.n, c.tile), c.n, dense(walk), dense(want))
		other := scoreFor(rna.Random(rng, c.n), score.Unit())
		for _, impl := range maxplus.Impls() {
			k := semiring.MaxPlusKernelsOf(impl)
			for _, pfor := range []ParallelFor{nil, ForkJoin(2)} {
				g := NewGTable[float32](c.n)
				if err := g.fillContext(context.Background(), k, 0, ScoreRows(c.n, other), true, pfor, 0, c.tile); err != nil {
					t.Fatal(err)
				}
				for _, poison := range []string{"another strand's", "random"} {
					label := fmt.Sprintf("n=%d tile %d %s parallel %v, over %s words", c.n, c.tile, impl, pfor != nil, poison)
					if poison == "random" {
						for i := range g.live {
							g.live[i] = rng.Uint64()
						}
						for i := range g.cl.tiles {
							g.cl.tiles[i] = rng.Uint64()
						}
					}
					g.Reset(c.n)
					if err := g.fillContext(context.Background(), k, 0, ScoreRows(c.n, sc), true, pfor, 0, c.tile); err != nil {
						t.Fatal(err)
					}
					if len(g.live) == 0 {
						t.Fatalf("%s: the closure recorded no live words", label)
					}
					requireSameBytes(t, label, c.n, dense(g), dense(want))
				}
			}
		}
	}
}

// productSplitWork is the share of the dense split work the closure's
// products take in a table just filled at tile edge tile: each product's
// kernel tiles' live splits, read from the rows' final words as fillTile
// built them, times the tile's rows, over the product's rows times splits.
func productSplitWork(g *Table, tile int) float64 {
	n, cl := g.N, &g.cl
	var live, dense int
	buf := make([]uint64, cl.slot)
	for nb, d := (n+tile-1)/tile, 2; d < nb; d++ {
		for b := 0; b < nb-d; b++ {
			r0, c0 := b*tile, (b+d)*tile
			mid := r0 + tile
			k := c0 - mid
			sets := maxplus.TileLive(buf, g.live, liveW(n), r0, tile, mid, c0)
			stride := len(sets) / maxplus.ProductTiles(tile)
			for r := range tile {
				set := sets[max(r/4, r-3*(tile/4))*stride:]
				for s := range k {
					live += int(set[s>>6] >> (s & 63) & 1)
				}
			}
			dense += tile * k
		}
	}
	return float64(live) / float64(dense)
}

// TestLiveWordsAreR2s: every closure fill records R2's live words, bit for
// bit — for each row, the words maxplus.R2Go leaves on a copy of the row
// against the table itself — on every kernel body, for strands of 1 to 1100
// nt (untiled, one word a row and more, tiled from SequentialCutoff up), and
// through the fillContext seam at tiles of 4 and 64 with no cutoff, inline
// and on two workers; each table filled over random words left by the fill
// before, and its Clone keeping them.
func TestLiveWordsAreR2s(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	r2 := maxplus.BodyOf[float32]("go").R2
	// r2Words is the words R2Go leaves on a copy of each row of g.
	r2Words := func(g *Table) []uint64 {
		w := liveW(g.N)
		row, words := make([]float32, g.N), make([]uint64, g.N*w)
		for i := range g.N {
			copy(row[i:], g.Row(i)[i:])
			r2(row, g.Data(), g.Pitch(), i, g.N, words[i*w:(i+1)*w])
		}
		return words
	}
	check := func(label string, g *Table, want []uint64) {
		t.Helper()
		got := g.Live()
		if len(got) != len(want) {
			t.Fatalf("%s: %d live words, R2 leaves %d", label, len(got), len(want))
		}
		diff := 0
		for x := range got {
			diff += bits.OnesCount64(got[x] ^ want[x])
		}
		if diff != 0 {
			t.Fatalf("%s: %d bits of the live words differ from R2's", label, diff)
		}
		if c := g.Clone(); !slices.Equal(c.Live(), got) {
			t.Fatalf("%s: a clone's live words differ from the table's", label)
		}
	}
	poisoned := func(n int) *Table {
		g := NewGTable[float32](n)
		g.live = make([]uint64, n*liveW(n))
		for x := range g.live {
			g.live[x] = rng.Uint64()
		}
		return g
	}
	for _, n := range []int{1, 47, 64, 128, 991, 1100} {
		w := score.WeightsOf(rna.Random(rng, n), score.Params{Model: score.BasePair()})
		var want []uint64
		for _, impl := range maxplus.Impls() {
			g := poisoned(n)
			if err := g.FillContext(context.Background(), semiring.MaxPlusKernelsOf(impl), 0, w.Rows, true, nil); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = r2Words(g)
			}
			check(fmt.Sprintf("n=%d %s", n, impl), g, want)
		}
	}
	for _, c := range []struct{ tile, n int }{{4, 37}, {4, 130}, {64, 300}} {
		sc := scoreFor(rna.Random(rng, c.n), score.BasePair())
		var want []uint64
		for _, impl := range maxplus.Impls() {
			for _, pfor := range []ParallelFor{nil, ForkJoin(2)} {
				g := poisoned(c.n)
				if err := g.fillContext(context.Background(), semiring.MaxPlusKernelsOf(impl), 0, ScoreRows(c.n, sc), true, pfor, 0, c.tile); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = r2Words(g)
				}
				check(fmt.Sprintf("n=%d tile %d %s parallel %v", c.n, c.tile, impl, pfor != nil), g, want)
			}
		}
	}
}

// TestSubstrateSplitWork pins the share of their dense splits the closure's
// products take on a 1024-nt strand — the bench's single-strand length — at
// the production tile edge: at most 18 % (13.4 % on R2's exact words; words
// that kept a tie live, as the substrate's own once did, read 21.3 %).
func TestSubstrateSplitWork(t *testing.T) {
	const n = 1024
	seq := rna.Random(rand.New(rand.NewSource(1)), n)
	w := score.WeightsOf(seq, score.Params{Model: score.BasePair()})
	k := semiring.MaxPlusKernels(true)
	g := NewGTable[float32](n)
	if err := g.FillContext(context.Background(), k, 0, w.Rows, true, nil); err != nil {
		t.Fatal(err)
	}
	tile := closureTile
	share := productSplitWork(g, tile)
	t.Logf("%d nt, tile %d on %s: the products take %.1f %% of their dense splits", n, tile, k.Impl, 100*share)
	if share > 0.18 {
		t.Errorf("the products take %.1f %% of their dense splits, want at most 18 %%", 100*share)
	}
}

// TestClosureScratchPricedAndReused: a closure fill of 1024 nt, on every
// kernel body, keeps LiveBytes beyond its cells, Bytes counts them, a Clone
// keeps the live words and drops the tile bit-sets, an untiled table keeps
// its words alone, and refilling the table at the same size allocates
// nothing.
func TestClosureScratchPricedAndReused(t *testing.T) {
	const n = 1024
	w := score.WeightsOf(rna.Random(rand.New(rand.NewSource(2)), n), score.Params{Model: score.BasePair()})
	for _, impl := range maxplus.Impls() {
		g, rows, k := NewGTable[float32](n), w.Rows, semiring.MaxPlusKernelsOf(impl)
		fill := func() {
			g.Reset(n)
			if err := g.FillContext(context.Background(), k, 0, rows, true, nil); err != nil {
				t.Fatal(err)
			}
		}
		fill()
		cells, words := int64(n*PitchOf(n, 4))*4, int64(n*liveW(n))*8
		if lb := LiveBytes(n); lb <= words || g.Bytes() != cells+lb {
			t.Errorf("%s: Bytes() = %d, want %d cells' bytes + LiveBytes %d, above the words' %d", impl, g.Bytes(), cells, lb, words)
		}
		if c := g.Clone(); c.Bytes() != cells+words {
			t.Errorf("%s: a clone's Bytes() = %d, want its cells' %d and its words' %d", impl, c.Bytes(), cells, words)
		}
		if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
			t.Errorf("%s: a refill of the table allocates %v times", impl, allocs)
		}
	}
	if m := SequentialCutoff - 1; LiveBytes(m) != int64(m*liveW(m))*8 {
		t.Errorf("LiveBytes(%d) = %d: an untiled table keeps its live words alone", m, LiveBytes(m))
	}
}
