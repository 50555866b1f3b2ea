// Command bpmaxbench regenerates the paper's tables and figures: one
// experiment per artifact of the evaluation section (see DESIGN.md's
// per-experiment index).
//
// Usage:
//
//	bpmaxbench                      # run everything at the default scale
//	bpmaxbench -exp fig13           # one experiment
//	bpmaxbench -exp fig13,fig14     # several, comma-separated
//	bpmaxbench -scale medium -csv   # bigger inputs, CSV output
//	bpmaxbench -chart               # ASCII bar charts
//	bpmaxbench -out results/medium  # also write <id>.txt / <id>.csv files
//	bpmaxbench -list                # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/bpmax-go/bpmax/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bpmaxbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bpmaxbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment IDs, comma-separated (empty = all); see -list")
	scale := fs.String("scale", "small", "workload scale: small, medium, full")
	workers := fs.Int("workers", 0, "parallel workers (0 = all CPUs)")
	seed := fs.Int64("seed", 42, "workload random seed")
	repeats := fs.Int("repeats", 1, "timing repeats (fastest wins)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	chart := fs.Bool("chart", false, "render ASCII bar charts instead of tables")
	outDir := fs.String("out", "", "also write <id>.txt and <id>.csv into this directory")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %-55s %s\n", e.ID, e.Title, e.PaperRef)
		}
		return nil
	}

	cfg := harness.RunConfig{
		Scale:   harness.Scale(*scale),
		Workers: *workers,
		Seed:    *seed,
		Repeats: *repeats,
	}
	switch cfg.Scale {
	case harness.ScaleSmall, harness.ScaleMedium, harness.ScaleFull:
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	var exps []harness.Experiment
	if *exp == "" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, ok := harness.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			exps = append(exps, e)
		}
		if len(exps) == 0 {
			return fmt.Errorf("no experiment IDs in -exp %q", *exp)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range exps {
		tab := e.Run(cfg)
		switch {
		case *csv:
			fmt.Printf("# %s,%s\n%s\n", tab.ID, tab.PaperRef, tab.CSV())
		case *chart:
			fmt.Println(tab.Chart(48))
		default:
			fmt.Println(tab.Text())
		}
		if *outDir != "" {
			base := filepath.Join(*outDir, tab.ID)
			if err := os.WriteFile(base+".txt", []byte(tab.Text()), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(base+".csv", []byte(tab.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
