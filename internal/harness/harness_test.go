package harness

import (
	"strconv"
	"strings"
	"testing"
)

func smallCfg() RunConfig {
	return RunConfig{Scale: ScaleSmall, Workers: 2, Seed: 1, Repeats: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ext-ablations", "ext-correlate", "ext-mpi", "fig1", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "table1", "table6",
		"tables2-5",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely registered", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig13"); !ok {
		t.Error("fig13 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus ID found")
	}
}

func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are timing-heavy")
	}
	cfg := smallCfg()
	for _, e := range All() {
		tab := e.Run(cfg)
		if tab == nil || len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", e.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row width %d != header %d", e.ID, len(row), len(tab.Header))
			}
		}
		if !strings.Contains(tab.Text(), e.ID) {
			t.Errorf("%s: Text() missing ID", e.ID)
		}
		if lines := strings.Count(tab.CSV(), "\n"); lines != len(tab.Rows)+1 {
			t.Errorf("%s: CSV has %d lines, want %d", e.ID, lines, len(tab.Rows)+1)
		}
	}
}

func TestScheduleExperimentsReportLegal(t *testing.T) {
	cfg := smallCfg()
	for _, id := range []string{"table1", "tables2-5"} {
		e, _ := ByID(id)
		tab := e.Run(cfg)
		for _, row := range tab.Rows {
			// The "legal" column must be true for every paper schedule row;
			// the one deliberately-false row is the fine @dim5 full-system
			// parallel validity, which carries its own claim text.
			if strings.Contains(row[0], "fine @dim5 (full system)") {
				if row[1] != "false" {
					t.Errorf("%s: %q should be false (paper: R1/R2 not parallelizable)", id, row[0])
				}
				continue
			}
			if row[1] != "true" {
				t.Errorf("%s: schedule row %q reported %q", id, row[0], row[1])
			}
		}
	}
}

func TestExtCorrelateReproducesPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("folds 60 pairs")
	}
	e, _ := ByID("ext-correlate")
	tab := e.Run(smallCfg())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad correlation cell %q", s)
		}
		return v
	}
	coldP := parse(tab.Rows[0][2])
	warmP := parse(tab.Rows[1][2])
	// The paper's pattern: strong correlation, cold above warm.
	if coldP < 0.75 || warmP < 0.5 {
		t.Errorf("correlations too weak: cold %v warm %v", coldP, warmP)
	}
	if coldP <= warmP {
		t.Errorf("cold (%v) should exceed warm (%v)", coldP, warmP)
	}
}

func TestTable6Ordering(t *testing.T) {
	e, _ := ByID("table6")
	tab := e.Run(smallCfg())
	loc := map[string]int{}
	for _, row := range tab.Rows {
		v, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad LOC %q", row[1])
		}
		loc[row[0]] = v
	}
	if !(loc["BPMax base"] < loc["BPMax hybrid"] && loc["BPMax hybrid"] < loc["BPMax hybrid tiled"]) {
		t.Errorf("LOC ordering violated: %v", loc)
	}
	if !(loc["double max-plus base"] < loc["BPMax base"]) {
		t.Errorf("DMP nest should be smaller than BPMax nest: %v", loc)
	}
}

func TestFig11ContainsPaperMachine(t *testing.T) {
	e, _ := ByID("fig11")
	tab := e.Run(smallCfg())
	txt := tab.Text()
	if !strings.Contains(txt, "Xeon E5-1650v4") || !strings.Contains(txt, "DRAM") {
		t.Errorf("fig11 output missing expected rows:\n%s", txt)
	}
	// The E5 peak column must show ≈345.6.
	if !strings.Contains(txt, "345.6") {
		t.Errorf("fig11 missing E5 peak:\n%s", txt)
	}
}

func TestTableTextAlignment(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "t", PaperRef: "p",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"lonng", "1"}},
		Notes:  []string{"n"},
	}
	txt := tab.Text()
	if !strings.Contains(txt, "lonng") || !strings.Contains(txt, "note: n") {
		t.Errorf("Text() = %q", txt)
	}
	csv := tab.CSV()
	if csv != "a,bbbb\nlonng,1\n" {
		t.Errorf("CSV() = %q", csv)
	}
}

func TestChartRendersBars(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "t", PaperRef: "p",
		Header: []string{"size", "fast GFLOPS", "slow GFLOPS", "label"},
		Rows: [][]string{
			{"a", "4.0", "1.0", "n/a"},
			{"b", "2.0x", "0.5", "n/a"},
		},
	}
	out := tab.Chart(40)
	if !strings.Contains(out, "fast GFLOPS") || !strings.Contains(out, "slow GFLOPS") {
		t.Fatalf("chart missing series:\n%s", out)
	}
	// Non-numeric column skipped entirely.
	if strings.Contains(out, "label\n") {
		t.Errorf("non-numeric column charted:\n%s", out)
	}
	// 4.0 is the max of its column: full width (40 hashes); 2.0 half.
	if !strings.Contains(out, strings.Repeat("#", 40)) {
		t.Errorf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("#", 20)+" 2.0x") {
		t.Errorf("half bar wrong:\n%s", out)
	}
}

func TestChartEmptyTable(t *testing.T) {
	tab := &Table{ID: "e", Title: "t", PaperRef: "p", Header: []string{"only"}}
	if out := tab.Chart(10); !strings.Contains(out, "nothing to chart") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestParseCell(t *testing.T) {
	cases := map[string]struct {
		v  float64
		ok bool
	}{
		"3.5": {3.5, true}, "7x": {7, true}, "2.50s*": {0, false},
		"12*": {12, true}, "n/a": {0, false}, " 4 ": {4, true},
	}
	for in, want := range cases {
		v, ok := parseCell(in)
		if ok != want.ok || (ok && v != want.v) {
			t.Errorf("parseCell(%q) = %v,%v want %v,%v", in, v, ok, want.v, want.ok)
		}
	}
}

func TestCSVEscapesCommas(t *testing.T) {
	tab := &Table{Header: []string{"a,b"}, Rows: [][]string{{"1,2"}}}
	if got := tab.CSV(); got != "a;b\n1;2\n" {
		t.Errorf("CSV() = %q", got)
	}
}

func TestSizesPerScale(t *testing.T) {
	small := RunConfig{Scale: ScaleSmall}.sizes()
	med := RunConfig{Scale: ScaleMedium}.sizes()
	full := RunConfig{Scale: ScaleFull}.sizes()
	if small[len(small)-1][1] >= med[len(med)-1][1] || med[len(med)-1][1] >= full[len(full)-1][1] {
		t.Error("scales not increasing")
	}
	if (RunConfig{}).repeats() != 1 {
		t.Error("default repeats")
	}
}
