package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestRoundRates(t *testing.T) {
	walls := []time.Duration{time.Second, 2 * time.Second, 500 * time.Millisecond}
	if got, want := roundRates(8, walls), []float64{8, 4, 16}; !reflect.DeepEqual(got, want) {
		t.Errorf("roundRates = %v, want %v", got, want)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{8: 50, 15: 50, 50: 80, 90: 80, 160: 90, 200: 95, 1500: 99, 20000: 99.9} {
		got := tailPercentile(n)
		if got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
		if beyond := n - int(math.Ceil(got/100*float64(n))); got > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond it", n, got, beyond)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := generate(w, 7, fullSizes), generate(w, 7, fullSizes)
		if !reflect.DeepEqual(a, b) || a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if c := generate(w, 8, fullSizes); c.digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w)
		}
	}
	hot := generate("serve", 7, fullSizes).Pairs
	other := generate("serve", 8, fullSizes).Pairs
	var same, diff bytes.Buffer
	for i := 0; i < 200; i++ {
		same.Write(makeServeOp(7, i, hot, fullSizes).body)
		diff.Write(makeServeOp(8, i, other, fullSizes).body)
	}
	var again bytes.Buffer
	for i := 0; i < 200; i++ {
		again.Write(makeServeOp(7, i, hot, fullSizes).body)
	}
	if !bytes.Equal(same.Bytes(), again.Bytes()) {
		t.Error("serve: the same seed gave a different op stream")
	}
	if bytes.Equal(same.Bytes(), diff.Bytes()) {
		t.Error("serve: seeds 7 and 8 gave the same op stream")
	}
}

func TestServeMix(t *testing.T) {
	sz := fullSizes
	hot := generate("serve", 1, sz).Pairs
	counts := map[opKind]int{}
	seen := map[[2]string]bool{}
	for _, p := range hot {
		seen[p] = true
	}
	hotUse := make([]int, len(hot))
	for i := 0; i < sz.serveWarm; i++ {
		op := makeServeOp(1, i, hot, sz)
		counts[op.kind]++
		switch op.kind {
		case opHit:
			hotUse[op.hot]++
			if op.pairs[0] != hot[op.hot] {
				t.Fatalf("op %d: hit does not send hot pair %d", i, op.hot)
			}
		case opMiss, opBatch:
			if op.kind == opBatch && len(op.pairs) != sz.batchTargets {
				t.Fatalf("op %d: batch of %d targets, want %d", i, len(op.pairs), sz.batchTargets)
			}
			for _, p := range op.pairs {
				if seen[p] {
					t.Fatalf("op %d: pair repeats an earlier one, so it would hit the result cache", i)
				}
				seen[p] = true
				if p[1] != op.pairs[0][1] {
					t.Fatalf("op %d: batch targets do not share one query", i)
				}
			}
		}
		var body map[string]any
		if err := json.Unmarshal(op.body, &body); err != nil {
			t.Fatalf("op %d: body is not JSON: %v", i, err)
		}
	}
	if r := sz.serveWarm; counts[opHit] != r*7/10 || counts[opMiss] != r*2/10 || counts[opBatch] != r/10 {
		t.Errorf("mix over %d ops = %v, want 70%% hits, 20%% misses, 10%% batches", r, counts)
	}
	for k, n := range hotUse {
		if n < counts[opHit]/len(hot) || n > counts[opHit]/len(hot)+1 {
			t.Errorf("hot pair %d used %d times; the hot set is not walked evenly", k, n)
		}
	}
	if sz.serveRound%len(servePeriod) != 0 || sz.serveWarm%sz.serveRound != 0 {
		t.Errorf("round of %d ops, warm-up of %d: rounds must be whole periods so each holds the same mix", sz.serveRound, sz.serveWarm)
	}
	if last := makeServeOp(1, sz.serveRound-1, hot, sz); last.kind != opHit {
		t.Errorf("a round ends on a %v; it must end on a hit so both callers finish together", last.kind)
	}
}

func TestGoldenMatchesGenerator(t *testing.T) {
	env := &environment{seed: goldenSeed, sz: fullSizes}
	for _, name := range workloadNames {
		w, _ := workloadByName(name, fullSizes)
		a, err := env.expected(w)
		if err != nil {
			t.Fatal(err)
		}
		in := generate(name, goldenSeed, fullSizes)
		if got, want := len(a.Scores)+len(a.LogZ), len(in.Pairs)+len(in.Strands); got != want {
			t.Errorf("%s: golden.json holds %d answers for %d inputs", name, got, want)
		}
	}
}

// TestContract holds BENCHMARK.json and the metric tables in main.go together.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in main.go", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "higher"
			if d.lowerWins {
				better = "lower"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, main.go has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}

func metricNames(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	want := metricNames(defs)
	if len(want) != len(defs) {
		t.Fatalf("a metric name is listed twice in %d definitions", len(defs))
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		v, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case v.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", name, v.Value)
		}
	}
}

// smokeEnv builds the server once and returns a small-sized environment.
func smokeEnv(t *testing.T) *environment {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return &environment{seed: 5, sz: smokeSizes, bpmaxd: bin, log: io.Discard}
}

// TestSmoke runs every workload for one round at the smoke sizes, end to
// end and traced, and checks that every metric of the contract is reported
// exactly once with its unit.
func TestSmoke(t *testing.T) {
	env := smokeEnv(t)
	ctx := context.Background()
	for _, name := range workloadNames {
		w, _ := workloadByName(name, env.sz)
		res, m, err := plainRun(ctx, env, w, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != setupReps*w.warmOps+w.roundOps || len(m.walls) != 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d rounds=%d", name, res.Correct, res.Attempted, res.Failed, len(m.walls))
		}
		checkMetrics(t, res, endToEnd)
		for n, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", name, n, v.Value)
			}
		}
	}
	for _, name := range []string{"fold", "serve"} {
		w, _ := workloadByName(name, env.sz)
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		res, _, err := tracedRun(ctx, env, w, 0, 0, tracePath)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d ops failed", name, res.Failed, res.Attempted)
		}
		checkMetrics(t, res, perLayer)
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Dur  float64
			}
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatalf("%s: trace.json does not parse: %v", name, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace.json holds no spans", name)
		}
	}
}

// TestWrongReferenceFailsTheRun is the corrupted-golden check: one wrong
// reference answer must surface as failed ops and an incorrect result.
func TestWrongReferenceFailsTheRun(t *testing.T) {
	env := smokeEnv(t)
	ctx := context.Background()
	for _, name := range workloadNames {
		w, _ := workloadByName(name, env.sz)
		want, err := env.expected(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.LogZ) > 0 {
			want.LogZ[1] *= 1 + 1e-6
		} else {
			want.Scores[1]++
		}
		m, err := measure(ctx, env, w, want, 0, 1, nil)
		if name == "serve" {
			// A hot pair the server answers "wrongly" cannot even be primed.
			if err == nil {
				t.Errorf("serve: set-up accepted a wrong hot-set answer")
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.failed == 0 {
			t.Errorf("%s: a corrupted reference answer went unnoticed", name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := &recorder{epoch: time.Now()}
	rec.add("parent", 0, 0, -1, 0, 10*time.Millisecond)
	rec.add("child", 0, 0, 0, time.Millisecond, 4*time.Millisecond)
	rec.add("child", 0, 0, 0, 6*time.Millisecond, 3*time.Millisecond)
	for _, s := range rec.summarize() {
		switch s.name {
		case "parent":
			if s.self != 3*time.Millisecond || s.total != 10*time.Millisecond {
				t.Errorf("parent self/total = %v/%v, want 3ms/10ms", s.self, s.total)
			}
		case "child":
			if s.count != 2 || s.self != 7*time.Millisecond {
				t.Errorf("child count/self = %d/%v, want 2/7ms", s.count, s.self)
			}
		}
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", 0, 0, -1)) // the untraced path must be a no-op
}
