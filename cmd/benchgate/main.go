// Command benchgate is the repository's one performance gate: it runs the
// repository benchmark (BENCHMARK.json) on a parent commit and on the
// working tree as it stands, in alternating pairs, and judges every
// end-to-end metric of every workload by the rules the benchmark's
// reviewers apply.
//
//	benchgate -parent <rev> [-pairs 10] [-seed 1] [-workload fold,serve]
//	          [-claim <metric>@<workload>] [-out results/BENCH_<pr>.json]
//
// Everything about the metrics — names, units, which direction is better,
// the bound each may worsen by — and the benchmark command, its run length
// and its workloads is read from BENCHMARK.json; nothing is restated here.
// The parent is checked out with `git worktree add --detach` into a
// temporary directory that is removed on exit. Even pairs run the parent
// first, odd pairs the change, so drift on a shared host lands on both sides.
//
// Verdicts, one per (workload, metric) row:
//
//	ok          the change's median is not worse than the parent's by more
//	            than the metric's bound
//	regressed   it is
//	unresolved  the parent's own runs spread (IQR/median) wider than the
//	            bound, so "no worse" cannot be told — unless every run of
//	            the change beats every run of the parent
//	gain        (-claim rows only) the change won at least nine tenths of
//	            the pairs, ties counting for neither side, and the medians
//	            differ by more than the parent's interquartile range
//	claim not met
//
// A workload whose change runs fail a larger share of their operations than
// the parent's fails whatever its metrics say. The exit status is 1 on any
// regressed row, unmet claim or higher failure share. When BENCHMARK.json
// or a directory it lists under "paths" differs between the two trees the
// benchmark itself changed: there is nothing to compare (that change
// re-bases the ledger), benchgate says so and exits 0 — or 1 under -claim,
// because a change that claims a gain may not edit the benchmark.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// metric is one end-to-end metric of the contract.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the parent's median it may worsen by
}

// spec is the part of BENCHMARK.json the gate acts on.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

func loadSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run benchgate from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Command) == 0 || len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: needs a command, workloads and end_to_end metrics", path)
	}
	for _, m := range sp.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return &sp, nil
}

// argv is the benchmark invocation for one run: the command's own words,
// then the driver's protocol.
func (sp *spec) argv(workload string, seed int64) []string {
	return append(slices.Clone(sp.Command),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", "0")
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult reads the result line off a run's standard output and holds
// it to the contract: every end-to-end metric must be there.
func parseResult(stdout []byte, metrics []metric) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last line of output is not a result: %w", err)
	}
	for _, m := range metrics {
		if _, ok := res.Metrics[m.Name]; !ok {
			return result{}, fmt.Errorf("result has no metric %s", m.Name)
		}
	}
	return res, nil
}

// runner performs one benchmark run of a workload in a checkout.
type runner func(dir, workload string, seed int64) (result, error)

// execRunner runs the benchmark command. The benchmark's own report goes to
// its standard error and is shown only when the run yields no result.
func execRunner(ctx context.Context, sp *spec) runner {
	return func(dir, workload string, seed int64) (result, error) {
		argv := sp.argv(workload, seed)
		cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, runErr := cmd.Output()
		// A run with failed operations exits nonzero and still reports;
		// its failures are judged from the result, not the exit status.
		res, err := parseResult(out, sp.EndToEnd)
		if err != nil {
			return result{}, fmt.Errorf("%s in %s: %w (%v)\n%s", workload, dir, err, runErr, stderr.Bytes())
		}
		return res, nil
	}
}

// side is one tree's runs of one metric, in pair order.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// row is one (workload, metric) comparison: the shape results/BENCH_14,
// _17 and _18 were assembled in by hand, plus the bound and the verdict.
type row struct {
	Workload         string  `json:"workload"`
	Seed             int64   `json:"seed"`
	Metric           string  `json:"metric"`
	Unit             string  `json:"unit"`
	Better           string  `json:"better"`
	Bound            float64 `json:"bound"`
	Parent           side    `json:"parent"`
	Change           side    `json:"change"`
	ChangeOverParent float64 `json:"change_over_parent"`
	Pairs            int     `json:"pairs"`
	ChangeWins       int     `json:"change_wins"`
	ParentWins       int     `json:"parent_wins"`
	Verdict          string  `json:"verdict"`
}

// ops is one workload's operation ledger summed over its runs.
type ops struct {
	Workload        string `json:"workload"`
	ParentAttempted int    `json:"parent_attempted"`
	ParentFailed    int    `json:"parent_failed"`
	ChangeAttempted int    `json:"change_attempted"`
	ChangeFailed    int    `json:"change_failed"`
	Verdict         string `json:"verdict"`
}

// ledger is the -out document.
type ledger struct {
	ParentCommit string `json:"parent_commit"`
	Command      string `json:"command"`
	GoVersion    string `json:"go_version"`
	Platform     string `json:"platform"`
	NumCPU       int    `json:"nproc"`
	Method       string `json:"method"`
	Claim        string `json:"claim"`
	Verdict      string `json:"verdict"`
	Rows         []row  `json:"rows"`
	Ops          []ops  `json:"ops"`
}

// Verdicts.
const (
	vOK         = "ok"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
	vGain       = "gain"
	vNotMet     = "claim not met"
	vMoreFailed = "more failed operations"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles(xs, n=4), the rule of
// bench/stats.go). A single run is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := min(max(int(pos), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return q(1), q(2), q(3)
}

// beats reports whether a reads strictly better than b.
func beats(better string, a, b float64) bool {
	if better == "lower" {
		return a < b
	}
	return a > b
}

// judge fills a row's statistics and verdict from its two Runs arrays,
// Better and Bound. claimed selects the gain rule over the no-regression
// rule.
func judge(r *row, claimed bool) {
	p, c := &r.Parent, &r.Change
	p.Q1, p.Median, p.Q3 = quartiles(p.Runs)
	c.Q1, c.Median, c.Q3 = quartiles(c.Runs)
	r.ChangeOverParent = c.Median / p.Median
	r.Pairs = len(p.Runs)
	r.ChangeWins, r.ParentWins = 0, 0
	for i := range p.Runs {
		switch {
		case beats(r.Better, c.Runs[i], p.Runs[i]):
			r.ChangeWins++
		case beats(r.Better, p.Runs[i], c.Runs[i]):
			r.ParentWins++
		}
	}
	// gap > 0: the change's median is better by that much.
	gap := p.Median - c.Median
	if r.Better == "higher" {
		gap = -gap
	}
	iqr := p.Q3 - p.Q1
	switch {
	case claimed && 10*r.ChangeWins >= 9*r.Pairs && gap > iqr:
		r.Verdict = vGain
	case claimed:
		r.Verdict = vNotMet
	case -gap > r.Bound*p.Median:
		r.Verdict = vRegressed
	case iqr > r.Bound*p.Median && !sweeps(r):
		r.Verdict = vUnresolved
	default:
		r.Verdict = vOK
	}
}

// sweeps reports whether every run of the change beats every run of the
// parent.
func sweeps(r *row) bool {
	worstChange, bestParent := slices.Max(r.Change.Runs), slices.Min(r.Parent.Runs)
	if r.Better == "higher" {
		worstChange, bestParent = slices.Min(r.Change.Runs), slices.Max(r.Parent.Runs)
	}
	return beats(r.Better, worstChange, bestParent)
}

// campaign is one comparison: which trees, which workloads, how many pairs.
type campaign struct {
	spec      *spec
	dirs      [2]string // parent checkout, change checkout
	workloads []string
	pairs     int
	seed      int64
	claim     string // "<metric>@<workload>" or ""
	run       runner
	log       io.Writer
}

var sideNames = [2]string{"parent", "change"}

// measure runs every pair of every workload and judges the rows.
func (c *campaign) measure() (*ledger, error) {
	led := &ledger{Claim: c.claim}
	for _, w := range c.workloads {
		var runs [2][]result
		for i := 0; i < c.pairs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				res, err := c.run(c.dirs[s], w, c.seed)
				if err != nil {
					return nil, err
				}
				runs[s] = append(runs[s], res)
				fmt.Fprintf(c.log, "benchgate: %s pair %d/%d %s:", w, i+1, c.pairs, sideNames[s])
				for _, m := range c.spec.EndToEnd {
					fmt.Fprintf(c.log, " %s=%.6g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(c.log, " (%d/%d failed)\n", res.Failed, res.Attempted)
			}
		}
		for _, m := range c.spec.EndToEnd {
			r := row{Workload: w, Seed: c.seed, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			for i := range runs[0] {
				r.Parent.Runs = append(r.Parent.Runs, runs[0][i].Metrics[m.Name].Value)
				r.Change.Runs = append(r.Change.Runs, runs[1][i].Metrics[m.Name].Value)
			}
			judge(&r, c.claim == m.Name+"@"+w)
			led.Rows = append(led.Rows, r)
		}
		o := ops{Workload: w, Verdict: vOK}
		for i := range runs[0] {
			o.ParentAttempted += runs[0][i].Attempted
			o.ParentFailed += runs[0][i].Failed
			o.ChangeAttempted += runs[1][i].Attempted
			o.ChangeFailed += runs[1][i].Failed
		}
		// Shares compared by cross-multiplying: no division by a side that
		// attempted nothing.
		if o.ChangeFailed*o.ParentAttempted > o.ParentFailed*o.ChangeAttempted {
			o.Verdict = vMoreFailed
		}
		led.Ops = append(led.Ops, o)
	}
	led.Verdict = led.summary()
	return led, nil
}

// failures lists what makes the campaign fail, as "workload/metric: verdict".
func (l *ledger) failures() []string {
	var bad []string
	for _, r := range l.Rows {
		if r.Verdict == vRegressed || r.Verdict == vNotMet {
			bad = append(bad, fmt.Sprintf("%s/%s: %s", r.Workload, r.Metric, r.Verdict))
		}
	}
	for _, o := range l.Ops {
		if o.Verdict != vOK {
			bad = append(bad, fmt.Sprintf("%s: %s (%d/%d, parent %d/%d)", o.Workload, o.Verdict,
				o.ChangeFailed, o.ChangeAttempted, o.ParentFailed, o.ParentAttempted))
		}
	}
	return bad
}

func (l *ledger) summary() string {
	if bad := l.failures(); len(bad) > 0 {
		return strings.Join(bad, "; ")
	}
	verdict := "no row worse than its bound allows"
	var open []string
	for _, r := range l.Rows {
		if r.Verdict == vUnresolved {
			open = append(open, r.Workload+"/"+r.Metric)
		}
	}
	if len(open) > 0 {
		verdict = "no row regressed; unresolved (the parent's runs spread wider than the bound): " + strings.Join(open, ", ")
	}
	if l.Claim != "" {
		verdict = "gain on " + l.Claim + "; " + verdict
	}
	return verdict
}

// print writes the human-readable table.
func (l *ledger) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbetter\tparent\tchange\tchange/parent\twins\tparent IQR/median\tbound\tverdict")
	for _, r := range l.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f\t%d-%d of %d\t%.3f\t%.2f\t%s\n",
			r.Workload, r.Metric, r.Better, r.Parent.Median, r.Change.Median, r.ChangeOverParent,
			r.ChangeWins, r.ParentWins, r.Pairs, (r.Parent.Q3-r.Parent.Q1)/r.Parent.Median, r.Bound, r.Verdict)
	}
	tw.Flush()
	for _, o := range l.Ops {
		fmt.Fprintf(w, "%s: failed/attempted ops parent %d/%d, change %d/%d: %s\n", o.Workload,
			o.ParentFailed, o.ParentAttempted, o.ChangeFailed, o.ChangeAttempted, o.Verdict)
	}
	fmt.Fprintln(w, "verdict:", l.Verdict)
}

// git runs one git command in dir and returns its trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return string(bytes.TrimSpace(out)), nil
}

// benchmarkDiffers reports whether the working tree's benchmark — the files
// BENCHMARK.json names, tracked or not — is not commit's.
func benchmarkDiffers(ctx context.Context, root, commit string, paths []string) (bool, error) {
	paths = append([]string{"--", "BENCHMARK.json"}, paths...)
	changed, err := git(ctx, root, append([]string{"diff", "--name-only", commit}, paths...)...)
	if err != nil {
		return false, err
	}
	added, err := git(ctx, root, append([]string{"ls-files", "--others", "--exclude-standard"}, paths...)...)
	return changed != "" || added != "", err
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "revision to compare the working tree against (required)")
	pairs := fs.Int("pairs", 10, "alternating parent/change pairs per workload")
	seed := fs.Int64("seed", 1, "benchmark input seed")
	only := fs.String("workload", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	claim := fs.String("claim", "", "<metric>@<workload> that must show a gain")
	out := fs.String("out", "", "write the campaign (every run, statistics, verdicts) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *pairs < 1 || fs.NArg() > 0 {
		return errors.New("usage: benchgate -parent <rev> [-pairs 10] [-seed 1] [-workload w,...] [-claim <metric>@<workload>] [-out file.json]")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	c := &campaign{spec: sp, pairs: *pairs, seed: *seed, claim: *claim, run: execRunner(ctx, sp), log: stderr}
	for _, w := range sp.Workloads {
		c.workloads = append(c.workloads, w.Name)
	}
	if *only != "" {
		all := c.workloads
		c.workloads = strings.Split(*only, ",")
		for _, w := range c.workloads {
			if !slices.Contains(all, w) {
				return fmt.Errorf("-workload %q: BENCHMARK.json has no workload %q", *only, w)
			}
		}
	}
	if *claim != "" {
		m, w, _ := strings.Cut(*claim, "@")
		if !slices.ContainsFunc(sp.EndToEnd, func(e metric) bool { return e.Name == m }) || !slices.Contains(c.workloads, w) {
			return fmt.Errorf("-claim %q: want <end-to-end metric>@<workload being run>", *claim)
		}
	}

	commit, err := git(ctx, root, "rev-parse", "--verify", *parent+"^{commit}")
	if err != nil {
		return err
	}
	if differs, err := benchmarkDiffers(ctx, root, commit, sp.Paths); err != nil {
		return err
	} else if differs {
		if *claim != "" {
			return errors.New("the benchmark differs from " + *parent + ": a change that claims a gain may not edit the benchmark")
		}
		fmt.Fprintf(stdout, "benchgate: not compared: the benchmark (BENCHMARK.json, %s) differs from %s; a benchmark change re-bases the ledger\n",
			strings.Join(sp.Paths, ", "), *parent)
		return nil
	}
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c.dirs = [2]string{filepath.Join(tmp, "parent"), root}
	if _, err := git(ctx, root, "worktree", "add", "--detach", c.dirs[0], commit); err != nil {
		return err
	}
	defer func() {
		// Not ctx: the worktree must go even when the campaign was interrupted.
		if _, err := git(context.Background(), root, "worktree", "remove", "--force", c.dirs[0]); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
		}
	}()

	led, err := c.measure()
	if err != nil {
		return err
	}
	led.ParentCommit = commit
	led.Command = strings.Join(sp.argv("<workload>", *seed), " ")
	led.GoVersion, led.Platform, led.NumCPU = runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH, runtime.NumCPU()
	led.Method = fmt.Sprintf("%d alternating parent/change pairs per workload at seed %d (even pairs parent first, odd pairs change first); the change is the working tree", *pairs, *seed)
	led.print(stdout)
	if *out != "" {
		blob, err := json.MarshalIndent(led, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad := led.failures(); len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}
