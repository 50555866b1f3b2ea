package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtureSpec is a BENCHMARK.json whose names, directions and bounds are not
// the repository's: whatever the gate does with them it read from here.
const fixtureSpec = `{
  "command": ["sh", "bench/run.sh"],
  "paths": ["bench"],
  "run_seconds": 2,
  "workloads": [{"name": "alpha", "why": "x"}, {"name": "beta", "why": "y"}],
  "end_to_end": [
    {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "ops/s", "better": "higher", "bound": 0.1}
  ],
  "per_layer": [{"name": "ignored", "unit": "ms", "better": "lower"}]
}`

func fixture(t *testing.T) *spec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, []byte(fixtureSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// fake is an injected runner: every run reports 100 for each metric, times a
// 3 % pair-to-pair wobble shared by both sides, times scale(side, workload,
// metric) when set; failed(side) of its 50 operations fail.
type fake struct {
	scale  func(side, workload, metric string) float64
	failed map[string]int
	calls  []string
}

func (f *fake) run(dir, workload string, seed int64) (result, error) {
	i := 0
	for _, c := range f.calls {
		if c == dir+" "+workload {
			i++
		}
	}
	f.calls = append(f.calls, dir+" "+workload)
	line := fmt.Sprintf(`{"correct": true, "attempted": 50, "failed": %d, "metrics": {`, f.failed[dir])
	for k, m := range []string{"lat_ms", "rate"} {
		v := 100 * (1 + 0.03*math.Sin(float64(i)))
		if f.scale != nil {
			v *= f.scale(dir, workload, m)
		}
		line += fmt.Sprintf(`%s"%s": {"value": %v, "unit": "u"}`, strings.Repeat(", ", k), m, v)
	}
	return parseResult([]byte("report noise\n"+line+"}}\n"), []metric{{Name: "lat_ms"}, {Name: "rate"}})
}

func measure(t *testing.T, f *fake, pairs int, claim string) *ledger {
	t.Helper()
	c := &campaign{
		spec: fixture(t), dirs: [2]string{"parent", "change"}, workloads: []string{"alpha", "beta"},
		pairs: pairs, seed: 7, claim: claim, run: f.run, log: io.Discard,
	}
	led, err := c.measure()
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// verdicts maps "workload/metric" to the row's verdict.
func verdicts(l *ledger) map[string]string {
	out := map[string]string{}
	for _, r := range l.Rows {
		out[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return out
}

func TestQuartilesMatchBench(t *testing.T) {
	// bench/bench_test.go pins the same rule: statistics.quantiles(range(1, 11), n=4).
	q1, med, q3 := quartiles([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("quartiles of one run = %v %v %v, want the run", q1, med, q3)
	}
}

// TestIdenticalArtifactsPass: two sides that report the same numbers are
// within every bound, and their ties count as wins for neither.
func TestIdenticalArtifactsPass(t *testing.T) {
	led := measure(t, &fake{}, 10, "")
	if bad := led.failures(); len(bad) > 0 {
		t.Fatalf("A/A campaign fails: %v", bad)
	}
	if len(led.Rows) != 4 || len(led.Ops) != 2 {
		t.Fatalf("rows = %d, ops = %d, want 2 workloads x 2 metrics", len(led.Rows), len(led.Ops))
	}
	want := map[string]metric{"lat_ms": {Unit: "ms", Better: "lower", Bound: 0.25}, "rate": {Unit: "ops/s", Better: "higher", Bound: 0.1}}
	for _, r := range led.Rows {
		if r.Verdict != vOK || r.ChangeOverParent != 1 || r.ChangeWins != 0 || r.ParentWins != 0 || r.Pairs != 10 || r.Seed != 7 {
			t.Errorf("%s/%s: %+v", r.Workload, r.Metric, r)
		}
		if w := want[r.Metric]; r.Unit != w.Unit || r.Better != w.Better || r.Bound != w.Bound {
			t.Errorf("%s: unit/better/bound %s/%s/%v not the fixture's", r.Metric, r.Unit, r.Better, r.Bound)
		}
	}
}

// TestTimeJitterWithinThresholdPasses: an A/A campaign whose sides wobble
// independently by a few percent passes.
func TestTimeJitterWithinThresholdPasses(t *testing.T) {
	f := &fake{scale: func(side, workload, metric string) float64 {
		return map[string]float64{"parent": 1.02, "change": 0.99}[side]
	}}
	led := measure(t, f, 10, "")
	for key, v := range verdicts(led) {
		if v != vOK {
			t.Errorf("%s: %s, want ok", key, v)
		}
	}
}

// TestSelftest is the gate's self-test (once a flag of the tool): a synthetic
// move on one metric of one workload trips exactly that row and no other, in
// the direction and beyond the bound that metric's BENCHMARK.json entry gives.
func TestSelftest(t *testing.T) {
	for _, tc := range []struct {
		metric string
		factor float64
		want   string
	}{
		{"lat_ms", 1.30, vRegressed}, // lower is better: +30 % is worse
		{"lat_ms", 0.70, vOK},
		{"lat_ms", 1.20, vOK},      // inside lat_ms's 0.25
		{"rate", 0.70, vRegressed}, // higher is better: -30 % is worse
		{"rate", 1.30, vOK},
		{"rate", 0.85, vRegressed}, // outside rate's 0.10
		{"rate", 0.95, vOK},
	} {
		f := &fake{scale: func(side, workload, metric string) float64 {
			if side == "change" && workload == "beta" && metric == tc.metric {
				return tc.factor
			}
			return 1
		}}
		for key, v := range verdicts(measure(t, f, 10, "")) {
			want := vOK
			if key == "beta/"+tc.metric {
				want = tc.want
			}
			if v != want {
				t.Errorf("%s x%.2f: row %s is %q, want %q", tc.metric, tc.factor, key, v, want)
			}
		}
	}
}

// TestTimeRegressionFails: a regressed row fails the campaign, and the
// failure, the summary and the table all name it.
func TestTimeRegressionFails(t *testing.T) {
	f := &fake{scale: func(side, workload, metric string) float64 {
		if side == "change" && workload == "alpha" && metric == "lat_ms" {
			return 1.3
		}
		return 1
	}}
	led := measure(t, f, 4, "")
	if bad := led.failures(); len(bad) != 1 || bad[0] != "alpha/lat_ms: regressed" {
		t.Errorf("failures = %q, want exactly alpha/lat_ms", bad)
	}
	if led.Verdict != "alpha/lat_ms: regressed" {
		t.Errorf("verdict = %q", led.Verdict)
	}
	var table bytes.Buffer
	led.print(&table)
	if !strings.Contains(table.String(), "regressed") || strings.Count(table.String(), "regressed") != 2 {
		t.Errorf("table should name the row once and the verdict once:\n%s", table.String())
	}
}

// TestMetricsErrorsFail: failed operations are the benchmark's error ledger;
// a larger failed share fails the campaign even when every metric improved.
func TestMetricsErrorsFail(t *testing.T) {
	better := func(side, workload, metric string) float64 {
		if side == "parent" {
			return 1
		}
		return map[string]float64{"lat_ms": 0.5, "rate": 2}[metric]
	}
	led := measure(t, &fake{scale: better, failed: map[string]int{"change": 1}}, 3, "")
	bad := led.failures()
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "alpha: "+vMoreFailed) || !strings.HasPrefix(bad[1], "beta: "+vMoreFailed) {
		t.Errorf("failures = %q, want both workloads' failed share", bad)
	}
	if o := led.Ops[0]; o.ChangeFailed != 3 || o.ChangeAttempted != 150 || o.ParentFailed != 0 || o.ParentAttempted != 150 {
		t.Errorf("ops ledger %+v", o)
	}
	// The same share on both sides is not a failure of the change.
	led = measure(t, &fake{scale: better, failed: map[string]int{"change": 1, "parent": 1}}, 3, "")
	if bad := led.failures(); len(bad) != 0 {
		t.Errorf("equal failed shares fail: %q", bad)
	}
}

func TestRunOrderAlternates(t *testing.T) {
	f := &fake{}
	measure(t, f, 3, "")
	want := []string{
		"parent alpha", "change alpha", "change alpha", "parent alpha", "parent alpha", "change alpha",
		"parent beta", "change beta", "change beta", "parent beta", "parent beta", "change beta",
	}
	if !slices.Equal(f.calls, want) {
		t.Errorf("run order = %q\nwant %q", f.calls, want)
	}
}

// shifted returns parent runs 100..109 (median 104.5, IQR 5.5) and change
// runs that beat them by d in the first wins pairs, tie in the next ties
// pairs and lose by 1 in the rest. Lower is better.
func shifted(d float64, wins, ties int) *row {
	r := &row{Better: "lower", Bound: 0.25}
	for i := 0; i < 10; i++ {
		p := 100 + float64(i)
		c := p + 1
		switch {
		case i < wins:
			c = p - d
		case i < wins+ties:
			c = p
		}
		r.Parent.Runs, r.Change.Runs = append(r.Parent.Runs, p), append(r.Change.Runs, c)
	}
	return r
}

func TestClaimRule(t *testing.T) {
	for _, tc := range []struct {
		name       string
		d          float64
		wins, ties int
		want       string
	}{
		{"8 of 10 pairs", 20, 8, 0, vNotMet},
		{"9 of 10 pairs", 20, 9, 0, vGain},
		{"9 wins and a tie", 20, 9, 1, vGain},
		{"8 wins and two ties", 20, 8, 2, vNotMet},
		{"median gap just inside the parent's IQR", 5.4, 10, 0, vNotMet},
		{"median gap just outside the parent's IQR", 5.6, 10, 0, vGain},
	} {
		r := shifted(tc.d, tc.wins, tc.ties)
		judge(r, true)
		if r.Verdict != tc.want || r.ChangeWins != tc.wins || r.ParentWins != 10-tc.wins-tc.ties {
			t.Errorf("%s: %q with %d-%d wins, want %q", tc.name, r.Verdict, r.ChangeWins, r.ParentWins, tc.want)
		}
	}
	// Through a campaign: the claimed row is the only one judged for a gain.
	f := &fake{scale: func(side, workload, metric string) float64 {
		if side == "change" && workload == "alpha" && metric == "rate" {
			return 2
		}
		return 1
	}}
	got := verdicts(measure(t, f, 10, "rate@alpha"))
	if got["alpha/rate"] != vGain || got["alpha/lat_ms"] != vOK || got["beta/rate"] != vOK {
		t.Errorf("claimed campaign: %v", got)
	}
	if led := measure(t, &fake{}, 10, "rate@alpha"); len(led.failures()) != 1 || led.failures()[0] != "alpha/rate: "+vNotMet {
		t.Errorf("an A/A campaign met a claim: %q", led.failures())
	}
}

func TestUnresolvedVersusOK(t *testing.T) {
	wide := []float64{50, 60, 70, 80, 90, 100, 110, 120, 130, 140} // IQR/median = 0.58
	tight := []float64{95, 96, 97, 98, 99, 100, 101, 102, 103, 104}
	lower := func(xs []float64, by float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] -= by
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"parent spread wider than the bound", wide, wide, vUnresolved},
		{"wide, and the change a little better", wide, lower(wide, 5), vUnresolved},
		{"wide, but every change run beats every parent run", wide, lower(tight, 60), vOK},
		{"tight parent", tight, tight, vOK},
		{"wide and beyond the bound is still a regression", wide, lower(wide, -40), vRegressed},
	} {
		r := &row{Better: "lower", Bound: 0.25, Parent: side{Runs: tc.parent}, Change: side{Runs: tc.change}}
		judge(r, false)
		if r.Verdict != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, r.Verdict, tc.want)
		}
	}
}

// TestCommittedLedgerWithinBound re-derives results/BENCH_18.json, which was
// assembled by hand, from its runs arrays and the repository's
// BENCHMARK.json: same medians, ratios and pair wins, every row within the
// bound.
func TestCommittedLedgerWithinBound(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile("../../results/BENCH_18.json")
	if err != nil {
		t.Fatal(err)
	}
	var led ledger
	if err := json.Unmarshal(blob, &led); err != nil {
		t.Fatal(err)
	}
	if len(led.Rows) < 12 {
		t.Fatalf("only %d rows", len(led.Rows))
	}
	for _, stored := range led.Rows {
		i := slices.IndexFunc(sp.EndToEnd, func(m metric) bool { return m.Name == stored.Metric })
		if i < 0 || sp.EndToEnd[i].Better != stored.Better {
			t.Fatalf("%s/%s is not BENCHMARK.json's metric", stored.Workload, stored.Metric)
		}
		r := stored
		r.Bound = sp.EndToEnd[i].Bound
		judge(&r, false)
		if r.Verdict != vOK {
			t.Errorf("%s/%s seed %d: %s", r.Workload, r.Metric, r.Seed, r.Verdict)
		}
		// Not q1/q3: the hand-assembled files took them by numpy's inclusive
		// rule, not the benchmark's exclusive one.
		for name, pair := range map[string][2]float64{
			"parent median": {r.Parent.Median, stored.Parent.Median}, "change median": {r.Change.Median, stored.Change.Median},
			"change/parent": {r.ChangeOverParent, stored.ChangeOverParent}, "change wins": {float64(r.ChangeWins), float64(stored.ChangeWins)},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-9*math.Abs(pair[1]) {
				t.Errorf("%s/%s %s: re-derived %v, committed %v", r.Workload, r.Metric, name, pair[0], pair[1])
			}
		}
	}
}

// TestMissingRowFails: a run whose result lacks a metric of the contract is
// an error, not a row judged on what is left.
func TestMissingRowFails(t *testing.T) {
	contract := []metric{{Name: "lat_ms"}, {Name: "rate"}}
	if _, err := parseResult([]byte(`{"correct": true, "attempted": 1, "failed": 0, "metrics": {"lat_ms": {"value": 1, "unit": "ms"}}}`), contract); err == nil || !strings.Contains(err.Error(), "rate") {
		t.Errorf("missing metric: err = %v", err)
	}
	for _, out := range []string{"", "panic: boom\nexit status 2\n"} {
		if _, err := parseResult([]byte(out), contract); err == nil {
			t.Errorf("output %q parsed as a result", out)
		}
	}
}

// repo builds a git repository holding the fixture benchmark: bench/run.sh
// reports the number in the tree's speed file as lat_ms and its inverse as
// rate. It returns after chdir-ing into it (undone at cleanup).
func repo(t *testing.T) string {
	t.Helper()
	for _, tool := range []string{"git", "sh"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skip(tool + " not available")
		}
	}
	dir := t.TempDir()
	files := map[string]string{
		"BENCHMARK.json": fixtureSpec,
		"speed":          "100",
		"bench/run.sh": `v=$(cat speed)
echo "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"lat_ms\": {\"value\": $v, \"unit\": \"ms\"}, \"rate\": {\"value\": $((100000 / v)), \"unit\": \"ops/s\"}}}"
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, args := range [][]string{
		{"init", "-q"}, {"add", "-A"},
		{"-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "seed"},
	} {
		if _, err := git(ctx, dir, args...); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// TestCampaignOverGitWorktree drives run() end to end over a real parent
// worktree and the real exec runner, with a shell script for a benchmark.
func TestCampaignOverGitWorktree(t *testing.T) {
	dir := repo(t)
	ctx := context.Background()
	out := filepath.Join(t.TempDir(), "BENCH_x.json")
	var stdout bytes.Buffer

	// Clean tree: an A/A campaign.
	if err := run(ctx, []string{"-parent", "HEAD", "-pairs", "2", "-out", out}, &stdout, io.Discard); err != nil {
		t.Fatalf("A/A campaign: %v\n%s", err, stdout.String())
	}
	var led ledger
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &led); err != nil {
		t.Fatal(err)
	}
	head, _ := git(ctx, dir, "rev-parse", "HEAD")
	if led.ParentCommit != head || len(led.Rows) != 4 || len(led.Rows[0].Parent.Runs) != 2 || led.GoVersion == "" || led.NumCPU < 1 ||
		led.Command != "sh bench/run.sh --workload <workload> --seed 1 --seconds 2 --trace 0" {
		t.Errorf("ledger %+v", led)
	}

	// An uncommitted slowdown outside the benchmark's paths is the change.
	if err := os.WriteFile("speed", []byte("140"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(ctx, []string{"-parent", "HEAD", "-pairs", "2", "-workload", "beta"}, &stdout, io.Discard)
	if err == nil || err.Error() != "beta/lat_ms: regressed; beta/rate: regressed" {
		t.Errorf("slowed tree: err = %v", err)
	}
	if list, _ := git(ctx, dir, "worktree", "list"); strings.Count(list, "\n") != 0 {
		t.Errorf("parent worktree left behind:\n%s", list)
	}

	// A changed benchmark is not compared, and may not carry a claim.
	if err := os.WriteFile("bench/extra.sh", []byte("true\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run(ctx, []string{"-parent", "HEAD", "-pairs", "2"}, &stdout, io.Discard); err != nil || !strings.Contains(stdout.String(), "not compared") {
		t.Errorf("changed benchmark: err = %v, output %q", err, stdout.String())
	}
	if err := run(ctx, []string{"-parent", "HEAD", "-claim", "rate@alpha"}, &stdout, io.Discard); err == nil || !strings.Contains(err.Error(), "may not edit the benchmark") {
		t.Errorf("claim over a changed benchmark: err = %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	repo(t)
	ctx := context.Background()
	for _, args := range [][]string{
		{},
		{"-parent", "HEAD", "-pairs", "0"},
		{"-parent", "HEAD", "stray"},
		{"-parent", "HEAD", "-workload", "alpha,gamma"},
		{"-parent", "HEAD", "-claim", "rate"},
		{"-parent", "HEAD", "-claim", "p99@alpha"},
		{"-parent", "HEAD", "-workload", "alpha", "-claim", "rate@beta"},
		{"-parent", "no-such-rev"},
	} {
		if err := run(ctx, args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
	if err := os.Remove("BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-parent", "HEAD"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "repository root") {
		t.Errorf("outside a repository root: err = %v", err)
	}
}
