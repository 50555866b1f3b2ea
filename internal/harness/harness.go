// Package harness drives the paper-reproduction experiments: one runner
// per table and figure of the evaluation section, each emitting the same
// rows/series the paper reports (timings, GFLOPS, speedups, schedule
// legality, generated-code size), plus the three experiments that reproduce
// claims of its text (ext-ablations, ext-correlate, ext-mpi). Nothing here
// gates a regression: that is the repository benchmark's job (bench/,
// BENCHMARK.json, cmd/benchgate).
//
// Absolute numbers depend on the host — the substitutions are documented in
// DESIGN.md — but each experiment reproduces the paper's *shape*: which
// schedule wins, by roughly what factor, and where the crossovers fall.
package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects the workload sizes.
type Scale string

// Scales, smallest to largest. Small keeps every experiment under a second
// for tests; Full approaches the paper's sequence lengths (hours for the
// unoptimized baseline — the harness caps the baseline's sizes and notes
// the extrapolation).
const (
	ScaleSmall  Scale = "small"
	ScaleMedium Scale = "medium"
	ScaleFull   Scale = "full"
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	Scale   Scale
	Workers int // <=0: GOMAXPROCS
	Seed    int64
	Repeats int // timing repeats; <=0: 1
}

func (c RunConfig) repeats() int {
	if c.Repeats <= 0 {
		return 1
	}
	return c.Repeats
}

// sizes returns the (N1, N2) pairs measured at this scale.
func (c RunConfig) sizes() [][2]int {
	switch c.Scale {
	case ScaleMedium:
		return [][2]int{{16, 64}, {16, 96}, {16, 128}}
	case ScaleFull:
		return [][2]int{{16, 256}, {16, 512}, {16, 1024}}
	default:
		return [][2]int{{8, 32}, {8, 48}, {8, 64}}
	}
}

// baseCap returns the largest N2 at which the unoptimized baseline is run
// directly; beyond it the baseline time is extrapolated by FLOP ratio.
func (c RunConfig) baseCap() int {
	switch c.Scale {
	case ScaleFull:
		return 256
	default:
		return 1 << 30
	}
}

// Table is one regenerated artifact.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Header   []string
	Rows     [][]string
	Notes    []string
}

// Text renders the table with aligned columns.
func (t *Table) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s (%s) ==\n", t.ID, t.Title, t.PaperRef)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (cells are simple
// tokens; commas inside cells are replaced).
func (t *Table) CSV() string {
	var sb strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(clean(c))
		}
		sb.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}

// Experiment is one reproducible artifact generator.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(cfg RunConfig) *Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
