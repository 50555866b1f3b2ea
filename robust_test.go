package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/fault"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
)

// publicVariants enumerates every schedule reachable through the public
// API.
var publicVariants = []Variant{Base, Coarse, Fine, Hybrid, HybridTiled}

func TestFoldContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range publicVariants {
		res, err := FoldContext(ctx, "GGGAAACCC", "GGGUUUCCC", WithVariant(v))
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: res=%v err=%v, want nil result and Canceled", v, res != nil, err)
		}
	}
}

func TestFoldContextNilContextWorks(t *testing.T) {
	res, err := FoldContext(nil, "GGG", "CCC") //lint:ignore SA1012 the nil guard is part of the contract
	if err != nil || res == nil {
		t.Fatalf("nil ctx: res=%v err=%v", res, err)
	}
	want, _ := Fold("GGG", "CCC")
	if res.Score != want.Score {
		t.Errorf("nil-ctx score %v, want %v", res.Score, want.Score)
	}
}

func TestFoldContextDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// The triangle hook holds each of the fill's 2 080 triangles for 1 ms,
	// so the 10 ms deadline lands mid-fill whatever the kernels' speed, and
	// must interrupt it.
	rng := rand.New(rand.NewSource(7))
	s1, s2 := randSeq(rng, 64), randSeq(rng, 64)
	hold := withTriangleHook(func(int, int) { time.Sleep(time.Millisecond) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := FoldContext(ctx, s1, s2, hold)
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result and DeadlineExceeded", res != nil, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("the deadline took %v to unwind the fill, want well under 1s", elapsed)
	}
}

func TestWithMemoryLimitRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s1, s2 := randSeq(rng, 24), randSeq(rng, 24)
	// Below even the packed layout: the fold must fail without degradation
	// enabled, reporting the smallest layout it considered.
	limit := EstimateBytes(24, 24, WithPackedMemory()) - 1
	res, err := Fold(s1, s2, WithMemoryLimit(limit))
	var mle *MemoryLimitError
	if !errors.As(err, &mle) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result and *MemoryLimitError", res != nil, err)
	}
	if mle.LimitBytes != limit {
		t.Errorf("LimitBytes = %d, want %d", mle.LimitBytes, limit)
	}
	if want := EstimateBytes(24, 24, WithPackedMemory()); mle.EstimateBytes != want {
		t.Errorf("EstimateBytes = %d, want the packed footprint %d", mle.EstimateBytes, want)
	}
}

func TestWithMemoryLimitGenerousIsNoop(t *testing.T) {
	res, err := Fold("GGGAAACCC", "GGGUUUCCC", WithMemoryLimit(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation != DegradeNone {
		t.Errorf("degradation = %v, want none", res.Degradation)
	}
	want, _ := Fold("GGGAAACCC", "GGGUUUCCC")
	if res.Score != want.Score {
		t.Errorf("score %v, want %v", res.Score, want.Score)
	}
}

func TestDegradeToPackedKeepsScores(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s1, s2 := randSeq(rng, 24), randSeq(rng, 24)
	box := EstimateBytes(24, 24)
	packed := EstimateBytes(24, 24, WithPackedMemory())
	if packed >= box {
		t.Fatalf("packed %d not below box %d; test premise broken", packed, box)
	}
	res, err := Fold(s1, s2, WithMemoryLimit(packed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation != DegradePacked {
		t.Fatalf("degradation = %v, want packed", res.Degradation)
	}
	if res.TableBytes > packed {
		t.Errorf("allocated %d bytes over the %d limit", res.TableBytes, packed)
	}
	// The packed map is exact: same optimum, same sub-scores.
	want, err := Fold(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score {
		t.Errorf("packed score %v, full score %v", res.Score, want.Score)
	}
	if a, b := res.SubScore(2, 20, 3, 19), want.SubScore(2, 20, 3, 19); a != b {
		t.Errorf("packed SubScore %v, full %v", a, b)
	}
}

func TestDegradeToWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s1, s2 := randSeq(rng, 24), randSeq(rng, 24)
	const w = 6
	packed := EstimateBytes(24, 24, WithPackedMemory())
	banded := EstimateWindowedBytes(24, 24, w, w)
	if banded >= packed {
		t.Fatalf("banded %d not below packed %d; test premise broken", banded, packed)
	}
	res, err := Fold(s1, s2, WithMemoryLimit(banded), WithDegradeToWindowed(w, w))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation != DegradeWindowed || res.Window == nil {
		t.Fatalf("degradation = %v (window %v), want windowed", res.Degradation, res.Window != nil)
	}
	// The degraded fold must agree with a direct windowed scan.
	scan, err := ScanWindowed(s1, s2, w, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != scan.Best || res.Window.Best != scan.Best {
		t.Errorf("degraded score %v / window best %v, direct scan %v", res.Score, res.Window.Best, scan.Best)
	}
	if res.FLOPs != 0 {
		t.Errorf("FLOPs = %d on a windowed fallback, want 0", res.FLOPs)
	}
	// Accessors stay functional on the degraded result.
	if got, _, _, _, _ := res.BestLocal(w, w); got != scan.Best {
		t.Errorf("BestLocal = %v, want %v", got, scan.Best)
	}
	wr := res.Window
	if !wr.InWindow(wr.I1, wr.J1, wr.I2, wr.J2) {
		t.Error("best cell reported out of window")
	}
	if got := res.SubScore(wr.I1, wr.J1, wr.I2, wr.J2); got != scan.Best {
		t.Errorf("SubScore at best cell = %v, want %v", got, scan.Best)
	}
	st := res.Structure()
	if len(st.Bracket1) != res.N1 || len(st.Bracket2) != res.N2 {
		t.Errorf("bracket lengths %d/%d for %d/%d nt", len(st.Bracket1), len(st.Bracket2), res.N1, res.N2)
	}
}

func TestDegradeLadderExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s1, s2 := randSeq(rng, 24), randSeq(rng, 24)
	const w = 6
	banded := EstimateWindowedBytes(24, 24, w, w)
	res, err := Fold(s1, s2, WithMemoryLimit(banded-1), WithDegradeToWindowed(w, w))
	var mle *MemoryLimitError
	if !errors.As(err, &mle) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result and *MemoryLimitError", res != nil, err)
	}
	// With every rung over budget the error reports the cheapest one — the
	// windowed band.
	if mle.EstimateBytes != banded {
		t.Errorf("EstimateBytes = %d, want the banded footprint %d", mle.EstimateBytes, banded)
	}
}

func TestDegradationString(t *testing.T) {
	for d, want := range map[Degradation]string{
		DegradeNone:     "none",
		DegradePacked:   "packed",
		DegradeWindowed: "windowed",
		Degradation(42): "Degradation(42)",
	} {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestFoldSingleContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FoldSingleContext(ctx, "GGGAAACCC")
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("res=%v err=%v, want nil result and Canceled", res != nil, err)
	}
	// Background path unchanged.
	got, err := FoldSingleContext(context.Background(), "GGGAAACCC")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FoldSingle("GGGAAACCC")
	if got.Score != want.Score {
		t.Errorf("score %v, want %v", got.Score, want.Score)
	}
}

func TestScanWindowedContextCancelAndBudget(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ScanWindowedContext(ctx, "GGGAAACCC", "GGGUUUCCC", 4, 4)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("res=%v err=%v, want nil result and Canceled", res != nil, err)
	}
	// An over-budget band is rejected up front with the typed error.
	est := EstimateWindowedBytes(9, 9, 4, 4)
	var mle *MemoryLimitError
	_, err = ScanWindowed("GGGAAACCC", "GGGUUUCCC", 4, 4, WithMemoryLimit(est-1))
	if !errors.As(err, &mle) {
		t.Fatalf("err = %v, want *MemoryLimitError", err)
	}
	if mle.EstimateBytes != est || mle.LimitBytes != est-1 {
		t.Errorf("error fields %d/%d, want %d/%d", mle.EstimateBytes, mle.LimitBytes, est, est-1)
	}
	// At the limit it runs.
	if _, err := ScanWindowed("GGGAAACCC", "GGGUUUCCC", 4, 4, WithMemoryLimit(est)); err != nil {
		t.Errorf("scan at exactly the limit failed: %v", err)
	}
}

func TestScanWindowedElapsedPopulated(t *testing.T) {
	res, err := ScanWindowed("GGGAAACCCGGGAAACCC", "GGGUUUCCCGGGUUUCCC", 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
	}
}

// TestOverBudgetFoldBuildsNoSubstrate: the budget runs as soon as the two
// lengths are known, so a fold WithMemoryLimit refuses is refused before
// either O(n³) S-table build — the substrate cache is never even probed.
func TestOverBudgetFoldBuildsNoSubstrate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s1, s2 := randSeq(rng, 600), randSeq(rng, 600)
	c := NewCache(CacheConfig{})
	res, err := Fold(s1, s2, WithCache(c), WithMemoryLimit(1))
	var mle *MemoryLimitError
	if !errors.As(err, &mle) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result and *MemoryLimitError", res != nil, err)
	}
	if st := c.Stats(); st.SubstrateMisses != 0 || st.SubstrateHits != 0 {
		t.Errorf("refused fold reached the substrate stage: %d misses, %d hits", st.SubstrateMisses, st.SubstrateHits)
	}
}

// TestFoldCancelDuringSubstrate: an interaction fold's own S¹/S² builds
// honour the request's context like FoldSingle's. The engine-iter failpoint
// sleeps before every tile the builds claim on their two workers, so one
// build takes at least half a second of sleeps however fast or loaded the
// host, and a deadline set past the problem shell (the O(n²) parse and
// pair-weight tables, which nothing polls) falls inside the builds. The fold
// returns DeadlineExceeded within a quarter of that stretched build of its
// deadline — a tile of overshoot, not one table or two — pooled and
// unpooled, leaves the pool clean, and its request trace shows the substrate
// span it died in and no fill span.
func TestFoldCancelDuringSubstrate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	const n = 2000
	rng := rand.New(rand.NewSource(62))
	q1, q2 := rna.Random(rng, n), rna.Random(rng, n)
	s1, s2 := q1.String(), q2.String()
	start := time.Now()
	score.Build(q1, q2, score.DefaultParams())
	shell := time.Since(start)
	// The closure fill's 64-column tiles: 32 block-columns, 528 tiles a table.
	const delay, tiles = 2 * time.Millisecond, 32 * 33 / 2
	stretched := tiles * delay / 2 // the sleeps alone of one build on two workers
	if err := fault.Arm(fault.SiteEngineIter, fault.Trigger{Mode: fault.ModeDelay, Delay: delay}); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	deadline := shell + 20*time.Millisecond

	pool := NewPool()
	for name, opts := range map[string][]Option{"unpooled": nil, "pooled": {WithPool(pool)}} {
		tr := itrace.New(name, "fold")
		ctx, cancel := context.WithTimeout(itrace.NewContext(context.Background(), tr), deadline)
		start := time.Now()
		res, err := FoldContext(ctx, s1, s2, append(opts, WithWorkers(2))...)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || res != nil {
			t.Fatalf("%s: res=%v err=%v, want nil result and DeadlineExceeded", name, res != nil, err)
		}
		t.Logf("%s: returned %v after a %v deadline", name, took, deadline)
		// A slower shell than measured moves the cancel to the first tile;
		// uncancellable builds would overshoot by two stretched builds.
		if took > shell+deadline+stretched/4 {
			t.Errorf("%s: returned %v after a %v deadline; the shell takes %v, one S-table build at least %v", name, took, deadline, shell, stretched)
		}
		stages := stageNames(tr.Snapshot())
		if st := stages["substrate"]; st.Count != 1 {
			t.Errorf("%s: substrate stage %+v, want the one span the fold was cancelled in", name, st)
		}
		for _, fill := range []string{"accumulate", "finalize", "triangle"} {
			if _, ok := stages[fill]; ok {
				t.Errorf("%s: cancelled in the substrate stage but recorded a %s span", name, fill)
			}
		}
	}
	if live := pool.Stats().Buffers.Live; live != 0 {
		t.Errorf("pool holds %d live buffers after the cancelled fold", live)
	}
}

// TestScoreRangeRefused: a max-plus fold, scan or single fold whose bound
// maxWeight·2ᵉ·⌊(N1+N2)/2⌋ reaches 2²⁴, on its weights' 2⁻ᵉ grid, is refused
// with a typed error that states it, before any table is built, and counted
// once; under the bound, and for a partition fold (float64) at any weight,
// it runs.
func TestScoreRangeRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	s16, s17 := randSeq(rng, 16), randSeq(rng, 17)
	const w = 1 << 20 // 2²⁰: sixteen pairs reach 2²⁴
	// 2¹² beside a weight on the 2⁻⁸ grid: 2²⁰ units, sixteen pairs reach
	// 2²⁴ though their score, 2¹⁶, does not.
	const u = 1 << 12
	for _, tc := range []struct {
		name    string
		weights Weights
		s1, s2  string
		refused bool
	}{
		{"default weights", Weights{}, s16, s16, false},
		{"15 pairs under the bound", Weights{GC: w, AU: 2, GU: 1}, s16, s16[:15], false},
		{"16 pairs reach it", Weights{GC: w, AU: 2, GU: 1}, s16, s16, true},
		{"odd total rounds down", Weights{GC: w, AU: 2, GU: 1}, s16[:14], s17, false},
		{"largest weight is GU", Weights{GC: 3, AU: 2, GU: w}, s16, s17, true},
		{"negative weight counts by magnitude", Weights{GC: 3, AU: -w, GU: 1}, s16, s16, true},
		{"15 pairs of 2⁻⁸ units under the bound", Weights{GC: u, AU: 1.7, GU: 0.3}, s16, s16[:15], false},
		{"16 pairs of 2⁻⁸ units reach it", Weights{GC: u, AU: 1.7, GU: 0.3}, s16, s16, true},
	} {
		m := NewMetrics()
		c := NewCache(CacheConfig{})
		opts := []Option{WithWeights(tc.weights), WithMetrics(m), WithCache(c)}
		check := func(entry string, err error) {
			t.Helper()
			var sre *ScoreRangeError
			if got := errors.As(err, &sre); got != tc.refused || (!tc.refused && err != nil) {
				t.Errorf("%s, %s: err = %v, want refused = %v", tc.name, entry, err, tc.refused)
			}
		}
		_, err := Fold(tc.s1, tc.s2, opts...)
		check("Fold", err)
		if sre := (*ScoreRangeError)(nil); errors.As(err, &sre) &&
			(sre.N1 != len(tc.s1) || sre.N2 != len(tc.s2) || math.Ldexp(float64(sre.MaxWeight), sre.Exp)*float64((sre.N1+sre.N2)/2) < 1<<24) {
			t.Errorf("%s: %+v does not state a bound the fold reaches", tc.name, *sre)
		}
		if tc.refused {
			if snap := m.Snapshot(); snap.Errors != 1 {
				t.Errorf("%s: refusal counted %d times in Metrics.Errors, want 1", tc.name, snap.Errors)
			}
			if st := c.Stats(); st.SubstrateMisses != 0 {
				t.Errorf("%s: refused fold built %d S tables", tc.name, st.SubstrateMisses)
			}
		}
		_, err = ScanWindowed(tc.s1, tc.s2, 4, 4, opts...)
		check("ScanWindowed", err)
		_, err = FoldSingle(tc.s1+tc.s2, opts...)
		check("FoldSingle", err)
		if _, err := Fold(tc.s1, tc.s2, append(opts, WithAlgebra(AlgebraPartition), WithKT(float64(w)))...); err != nil {
			t.Errorf("%s: partition fold refused: %v", tc.name, err)
		}
	}
}

// TestRefusalBuildsNoPairTables: a fold refused for its memory limit or its
// score range is refused on the parsed lengths, before its three dense pair
// tables exist — at 3 000 + 3 000 nt those are n1²+n2²+n1·n2 float32, about
// 108 MB — so the refused call allocates almost nothing.
func TestRefusalBuildsNoPairTables(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s1, s2 := randSeq(rng, 3000), randSeq(rng, 3000)
	for _, tc := range []struct {
		name  string
		opts  []Option
		check func(error) bool
	}{
		{"memory limit", []Option{WithMemoryLimit(1 << 20)}, func(err error) bool {
			var me *MemoryLimitError
			return errors.As(err, &me)
		}},
		// 2¹³ · ⌊6000/2⌋ ≥ 2²⁴.
		{"score range", []Option{WithWeights(Weights{GC: 1 << 13, AU: 2, GU: 1})}, func(err error) bool {
			var sre *ScoreRangeError
			return errors.As(err, &sre)
		}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Fold(s1, s2, tc.opts...)
		runtime.ReadMemStats(&after)
		if !tc.check(err) {
			t.Errorf("%s: err = %v, want the typed refusal", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
			t.Errorf("%s: the refused fold allocated %d bytes, want under 8 MB", tc.name, got)
		}
	}
}

// TestFractionalWeightsFoldOnTheGrid: WithWeights rounds 3.1/1.7/0.3 to the
// 2⁻⁸ grid (794/256, 435/256, 77/256), where every max-plus sum is exact: the
// fold's score is the top-down oracle's over the rounded model bit for bit,
// and its structure's weight, summed pair by pair in float32, is the score.
func TestFractionalWeightsFoldOnTheGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s1, s2 := randSeq(rng, 5), randSeq(rng, 64)
	res, err := Fold(s1, s2, WithWeights(Weights{GC: 3.1, AU: 1.7, GU: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	rounded := map[[2]rna.Base]score.Value{{rna.G, rna.C}: 794.0 / 256, {rna.A, rna.U}: 435.0 / 256, {rna.G, rna.U}: 77.0 / 256}
	m := score.Custom("rounded", rounded)
	p, err := ibpmax.NewProblem(rna.MustNew(s1), rna.MustNew(s2), score.Params{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Score(ibpmax.Solve(p, ibpmax.VariantReference, ibpmax.Config{})); res.Score != want {
		t.Fatalf("score %v, oracle over the rounded model %v", res.Score, want)
	}
	var weight float32
	pair := func(a, b byte) { weight += m.Pair(rna.Base(a), rna.Base(b)) }
	st := res.Structure()
	for _, pr := range st.Intra1 {
		pair(s1[pr.I], s1[pr.J])
	}
	for _, pr := range st.Intra2 {
		pair(s2[pr.I], s2[pr.J])
	}
	for _, pr := range st.Inter {
		pair(s1[pr.I1], s2[pr.I2])
	}
	if weight != res.Score {
		t.Errorf("structure weighs %v, score %v", weight, res.Score)
	}
}

// TestEstimateBytesAdmitsFold: EstimateBytes is the charge an unpooled,
// uncached fold is budgeted, for either algebra and either map, so a limit
// of exactly the estimate folds undegraded and one byte less does not.
func TestEstimateBytesAdmitsFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s1, s2 := randSeq(rng, 24), randSeq(rng, 24)
	for _, alg := range []Algebra{AlgebraMaxPlus, AlgebraPartition} {
		for _, layout := range [][]Option{nil, {WithPackedMemory()}} {
			opts := append([]Option{WithAlgebra(alg)}, layout...)
			est := EstimateBytes(24, 24, opts...)
			name := fmt.Sprintf("%s/packed=%v", alg, layout != nil)
			res, err := Fold(s1, s2, append(opts, WithMemoryLimit(est))...)
			if err != nil {
				t.Errorf("%s: fold at a limit of EstimateBytes = %d: %v", name, est, err)
				continue
			}
			if res.Degradation != DegradeNone || res.Metrics.BudgetEstimateBytes != est {
				t.Errorf("%s: degradation %v, charged %d, want none at %d", name, res.Degradation, res.Metrics.BudgetEstimateBytes, est)
			}
			res, err = Fold(s1, s2, append(opts, WithMemoryLimit(est-1))...)
			var mle *MemoryLimitError
			if err == nil && res.Degradation == DegradeNone || err != nil && !errors.As(err, &mle) {
				t.Errorf("%s: one byte under the estimate: err %v, want a degradation or *MemoryLimitError", name, err)
			}
		}
	}
}

// TestBudgetChargeIsAllocation: on every rung of the ladder, and for a scan,
// the bytes the budget charged an unpooled, uncached fold are the bytes it
// allocated — the table, and on partition the Boltzmann substrate.
func TestBudgetChargeIsAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s1, s2 := randSeq(rng, 20), randSeq(rng, 20)
	const w = 5
	for _, alg := range []Algebra{AlgebraMaxPlus, AlgebraPartition} {
		packed := EstimateBytes(20, 20, WithAlgebra(alg), WithPackedMemory())
		limits := map[Degradation]int64{DegradeNone: EstimateBytes(20, 20, WithAlgebra(alg)), DegradePacked: packed}
		if alg == AlgebraMaxPlus {
			limits[DegradeWindowed] = EstimateWindowedBytes(20, 20, w, w)
		}
		for want, limit := range limits {
			res, err := Fold(s1, s2, WithAlgebra(alg), WithMemoryLimit(limit), WithDegradeToWindowed(w, w))
			if err != nil {
				t.Fatalf("%s/%v: %v", alg, want, err)
			}
			alloc := res.TableBytes
			if res.ps != nil {
				alloc += res.ps.Bytes()
			}
			if res.Degradation != want || res.Metrics.BudgetEstimateBytes != alloc {
				t.Errorf("%s/%v: rung %v charged %d, allocated %d", alg, want, res.Degradation, res.Metrics.BudgetEstimateBytes, alloc)
			}
		}
	}
	win, err := ScanWindowed(s1, s2, w, w, WithMemoryLimit(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if win.Metrics.BudgetEstimateBytes != win.TableBytes {
		t.Errorf("scan charged %d, allocated %d", win.Metrics.BudgetEstimateBytes, win.TableBytes)
	}
}

// TestCachedResultCharge pins the result cache's charge for a retained
// master: its table, the problem's score tables, S tables and sequences,
// and on partition the Boltzmann substrate — counted from the master's own
// storage, so a change to the model that moves an eviction fails here.
func TestCachedResultCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s1, s2 := randSeq(rng, 17), randSeq(rng, 11)
	for _, alg := range []Algebra{AlgebraMaxPlus, AlgebraPartition} {
		res, err := Fold(s1, s2, WithAlgebra(alg))
		if err != nil {
			t.Fatal(err)
		}
		p := res.prob
		tab := p.Tab
		want := res.TableBytes + int64(len(tab.Intra1)+len(tab.Intra2)+len(tab.Inter))*4 +
			p.S1.Bytes() + p.S2.Bytes() + int64(p.Seq1.Len()+p.Seq2.Len())
		if res.ps != nil {
			want += res.ps.Bytes()
		}
		if got := cachedResultBytes(res); got != want {
			t.Errorf("%s: cachedResultBytes = %d, the master holds %d", alg, got, want)
		}
	}
}
