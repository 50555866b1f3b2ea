package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"text/tabwriter"
)

// runChild runs one workload in a fresh process of this same binary and
// returns its result line, so no workload inherits another's heap, pools or
// lazily built tables.
func runChild(ctx context.Context, workload string, seed int64, seconds float64, trace int, stderr io.Writer) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	line := lines[len(lines)-1]
	if err != nil {
		return line, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return line, nil
}

// selfcheck answers "is this benchmark steady enough to gate on?" the way
// the driver does: two sets of n runs per workload, every run on another
// seed, the sets interleaved so drift of the host lands on both. For every
// end-to-end metric it prints both set medians, how far the second is worse
// than the first, and each set's quartile spread. It fails when a shift
// uses more than half the metric's bound or a spread exceeds the bound
// (setup_s excepted, as in the driver), and marks a spread above a third of
// the bound — the margin a steady host should leave — as noisy.
func selfcheck(ctx context.Context, n int, seconds float64, stderr io.Writer) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range workloadNames {
			for set := 0; set < 2; set++ {
				seed := int64(1 + 2*i + set)
				line, err := runChild(ctx, w, seed, seconds, 0, io.Discard)
				if err != nil {
					fmt.Fprintln(stderr, "bench: selfcheck:", err)
					return 1
				}
				var res result
				if err := json.Unmarshal([]byte(line), &res); err != nil || !res.Correct {
					fmt.Fprintf(stderr, "bench: selfcheck: %s seed %d: bad result %q\n", w, seed, line)
					return 1
				}
				for name, v := range res.Metrics {
					k := key{w, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Fprintf(stderr, "selfcheck: pass %d/%d %s set %c done\n", i+1, n, w, 'A'+set)
			}
		}
	}
	var table bytes.Buffer
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB worse by\tspread A\tspread B\tbound\tverdict")
	code := 0
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a, b := sets[0][key{w, d.name}], sets[1][key{w, d.name}]
			ma, mb := median(a), median(b)
			worse := mb/ma - 1
			if !d.lowerWins {
				worse = ma/mb - 1
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if spread := max(sa, sb); d.name != "setup_s" && spread > d.bound/3 {
				verdict = "noisy" // above the target of a third of the bound
				if spread > d.bound {
					verdict, code = "SPREAD", 1 // the driver would refuse the benchmark
				}
			}
			if worse > d.bound/2 {
				verdict, code = "SHIFT", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				w, d.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(stderr, "\nselfcheck: %d runs per set, %g s timed section\n%s", n, seconds, table.String())
	return code
}
