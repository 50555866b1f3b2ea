// Command bpmax folds two RNA sequences with the BPMax RNA-RNA interaction
// algorithm and prints the optimal score and one optimal joint structure.
//
// Usage:
//
//	bpmax [flags] SEQ1 SEQ2
//	bpmax [flags] -fasta interactions.fa     # first two records
//
// Examples:
//
//	bpmax GGGAAACCC GGGUUUCCC
//	bpmax -variant base -workers 1 GGGAAACCC GGGUUUCCC
//	bpmax -window 64 longseq1.txt-content longseq2.txt-content
//	bpmax -timeout 30s -mem-limit 2GB -degrade-window 100 SEQ1 SEQ2
//	bpmax -fasta pairs.fa -batch -workers 8          # screen on one 8-wide worker team + pooled tables
//	bpmax -fasta pairs.fa -batch -cache 256MB -admit 4   # cache repeated strands, gate concurrency
//	bpmax -metrics-json - GGGAAACCC GGGUUUCCC        # emit fold metrics as JSON on stdout
//	bpmax -pprof localhost:6060 -fasta pairs.fa -batch   # profile a screen live
//
// The serving knobs (-variant, -workers, -cache, -admit, -retry,
// -failpoints, ...) are shared verbatim with the bpmaxd network server; see
// internal/cliflags. A -batch screen recycles its tables through a pool.
//
// A first SIGINT cancels the fold gracefully (the partial table is
// discarded and the process exits with an error); a second one kills the
// process the usual way.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"time"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/cliflags"
)

func main() {
	// NotifyContext cancels on the first SIGINT and, by restoring the
	// default handler after cancellation, lets a second SIGINT terminate a
	// process stuck past the cooperative checkpoints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bpmax:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bpmax", flag.ContinueOnError)
	serving := cliflags.NewServing()
	serving.Register(fs)
	window := fs.Int("window", 0, "windowed scan with this span for both sequences (0 = full fold)")
	timeout := fs.Duration("timeout", 0, "abort the fold after this long, e.g. 30s (0 = no deadline)")
	fasta := fs.String("fasta", "", "read the first two records of this FASTA file instead of arguments")
	resolve := fs.Int64("resolve", 0, "accept IUPAC ambiguity codes in FASTA, resolving them randomly with this seed (0 = strict)")
	batch := fs.Bool("batch", false, "treat the FASTA file as consecutive pairs; fold all and rank by interaction gain")
	structure := fs.Bool("structure", true, "print an optimal joint structure")
	draw := fs.Bool("draw", false, "draw the joint structure as an ASCII duplex diagram")
	ensemble := fs.Bool("ensemble", false, "print per-strand ensemble statistics (structure counts, logZ)")
	algebra := fs.String("algebra", "maxplus", "evaluation semiring: maxplus (BPMax optimal score) or partition (BPPart log-partition function)")
	kt := fs.Float64("kt", 1.0, "Boltzmann temperature factor kT for -algebra partition, in pair-weight units")
	stats := fs.Bool("stats", false, "print timing, GFLOPS, table size and the kernel implementation (avx512, avx2 or go)")
	metricsJSON := fs.String("metrics-json", "", "write fold metrics as JSON to this file ('-' = stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while folding")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if ctx == nil {
		ctx = context.Background()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	comps, err := serving.Build()
	if err != nil {
		return err
	}
	defer comps.Close()
	options := comps.Options
	options = append(options, bpmax.WithAlgebra(bpmax.Algebra(*algebra)), bpmax.WithKT(*kt))

	// Every fold records its own Result.Metrics (-stats prints the kernel
	// name from it); the aggregate is the cumulative side -metrics-json
	// publishes. Aggregating costs a dozen atomic adds per fold, so it is
	// simply always on.
	options = append(options, bpmax.WithMetrics(bpmax.NewMetrics()))
	if *batch {
		// A screen folds many pairs of similar shape: recycle their tables.
		options = append(options, bpmax.WithPool(bpmax.NewPool()))
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bpmax: pprof server:", err)
			}
		}()
	}
	// writeMetrics emits the -metrics-json document; fold is the single
	// fold's record (nil in batch mode, where only totals apply).
	writeMetrics := func(fold *bpmax.FoldSnapshot) error {
		if *metricsJSON == "" {
			return nil
		}
		doc := struct {
			Fold   *bpmax.FoldSnapshot   `json:"fold,omitempty"`
			Totals bpmax.MetricsSnapshot `json:"totals"`
		}{fold, bpmax.Stats(options...)}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if *metricsJSON == "-" {
			_, err = os.Stdout.Write(raw)
			return err
		}
		return os.WriteFile(*metricsJSON, raw, 0o644)
	}

	var s1, s2, name1, name2 string
	if *fasta != "" {
		recs, err := bpmax.LoadFasta(*fasta, *resolve)
		if err != nil {
			return err
		}
		if *batch {
			if err := runBatch(ctx, recs, serving.Workers, options); err != nil {
				return err
			}
			return writeMetrics(nil)
		}
		if len(recs) < 2 {
			return fmt.Errorf("FASTA file %s has %d records, need 2", *fasta, len(recs))
		}
		s1, s2 = recs[0].Seq, recs[1].Seq
		name1, name2 = recs[0].Name, recs[1].Name
	} else {
		if fs.NArg() != 2 {
			return fmt.Errorf("need exactly two sequences (or -fasta); got %d args", fs.NArg())
		}
		s1, s2 = fs.Arg(0), fs.Arg(1)
		name1, name2 = "seq1", "seq2"
	}

	if *window > 0 {
		res, err := bpmax.ScanWindowedContext(ctx, s1, s2, *window, *window, options...)
		if err != nil {
			return describeFoldErr(err)
		}
		fmt.Printf("best windowed interaction score: %g\n", res.Best)
		fmt.Printf("at %s[%d..%d] x %s[%d..%d]\n", name1, res.I1, res.J1, name2, res.I2, res.J2)
		if *stats {
			fmt.Printf("scan time: %v  rate: %.1f Mcells/s  banded table: %.1f MB  kernel: %s\n",
				res.Elapsed, cellRate(res.TableBytes/4, res.Elapsed), float64(res.TableBytes)/(1<<20), res.Metrics.Kernel)
			printRuntimeStats()
		}
		fold := res.Metrics.Snapshot()
		return writeMetrics(&fold)
	}

	res, err := bpmax.FoldContext(ctx, s1, s2, options...)
	if err != nil {
		return describeFoldErr(err)
	}
	if res.Degradation != bpmax.DegradeNone {
		fmt.Printf("note: fold degraded to the %s layout to fit the memory limit\n", res.Degradation)
	}
	switch {
	case res.Degradation == bpmax.DegradeWindowed:
		w := res.Window
		fmt.Printf("best windowed interaction score: %g\n", w.Best)
		fmt.Printf("at %s[%d..%d] x %s[%d..%d]\n", name1, w.I1, w.J1, name2, w.I2, w.J2)
	case res.Algebra == bpmax.AlgebraPartition:
		fmt.Printf("log partition function: logZ = %.4f at kT=%g  (%s: %d nt, %s: %d nt)\n",
			res.LogZ, res.KT, name1, res.N1, name2, res.N2)
		fmt.Printf("per-strand logZ: %.4f + %.4f  interaction gain: %.4f\n",
			res.LogZ1, res.LogZ2, res.LogZ-res.LogZ1-res.LogZ2)
	default:
		fmt.Printf("interaction score: %g  (%s: %d nt, %s: %d nt)\n", res.Score, name1, res.N1, name2, res.N2)
	}
	if res.Algebra == bpmax.AlgebraPartition {
		// Structures and duplex drawings are max-plus notions; the ensemble
		// has no single optimal structure to render.
		*structure, *draw = false, false
	}
	if *structure {
		st := res.Structure()
		fmt.Printf("%s  %s\n", st.Bracket1, name1)
		fmt.Printf("%s  %s\n", st.Bracket2, name2)
		fmt.Printf("intramolecular pairs: %d + %d, intermolecular bonds: %d\n",
			len(st.Intra1), len(st.Intra2), len(st.Inter))
	}
	if *draw {
		fmt.Print(res.Structure().Draw(s1norm(s1), s1norm(s2)))
	}
	if *ensemble {
		for i, s := range []string{s1, s2} {
			ens, err := bpmax.SingleEnsemble(s, 1.0)
			if err != nil {
				return err
			}
			fmt.Printf("strand %d ensemble: %.0f structures, %.0f co-optimal, logZ(kT=1) = %.2f\n",
				i+1, ens.Structures, ens.Cooptimal, ens.LogZ)
		}
	}
	if *stats {
		if res.Degradation == bpmax.DegradeWindowed {
			fmt.Printf("scan time: %v  rate: %.1f Mcells/s  banded table: %.1f MB  kernel: %s\n",
				res.Elapsed, cellRate(res.TableBytes/4, res.Elapsed), float64(res.TableBytes)/(1<<20), res.Metrics.Kernel)
		} else {
			fmt.Printf("fill time: %v  rate: %.2f GFLOPS  table: %.1f MB  kernel: %s\n",
				res.Elapsed, res.GFLOPS(), float64(res.TableBytes)/(1<<20), res.Metrics.Kernel)
		}
		printRuntimeStats()
	}
	fold := res.Metrics.Snapshot()
	return writeMetrics(&fold)
}

// printRuntimeStats appends the Go runtime health line to -stats output:
// the process-level signals (GC pauses, scheduler delay) that explain
// fill-time variance the solver's own counters cannot.
func printRuntimeStats() {
	rt := bpmax.ReadRuntimeStats()
	fmt.Printf("runtime: %d goroutines  gc: %d cycles / %v paused  heap: %.1f MB  sched p99: %v\n",
		rt.Goroutines, rt.NumGC, time.Duration(rt.GCPauseTotalNanos),
		float64(rt.HeapAllocBytes)/(1<<20), time.Duration(rt.SchedLatencyP99Nanos))
}

// describeFoldErr rewrites the robustness-layer errors into actionable CLI
// messages; anything else passes through.
func describeFoldErr(err error) error {
	var mle *bpmax.MemoryLimitError
	var ae *bpmax.AdmissionError
	switch {
	case errors.As(err, &ae):
		if errors.Is(err, bpmax.ErrQueueFull) {
			return fmt.Errorf("%w; raise -admit or -admit-queue", err)
		}
		return fmt.Errorf("%w; raise -timeout or -admit", err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("fold exceeded -timeout and was cancelled (%w)", err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("fold interrupted (%w)", err)
	case errors.As(err, &mle):
		return fmt.Errorf("%w; raise -mem-limit or enable -degrade-window", err)
	}
	return err
}

// cellRate converts a cell count and duration to millions of cells/second.
func cellRate(cells int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(cells) / d.Seconds() / 1e6
}

// runBatch folds consecutive FASTA pairs and prints them ranked by
// interaction gain, with per-item failure and degradation status.
func runBatch(ctx context.Context, recs []bpmax.FastaRecord, workers int, options []bpmax.Option) error {
	items, err := bpmax.PairsFromFasta(recs)
	if err != nil {
		return err
	}
	results := bpmax.FoldBatchContext(ctx, items, workers, options...)
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bpmax: skipping %v\n", r.Err)
		}
	}
	ranked := bpmax.RankByGain(results)
	fmt.Printf("%-40s %10s %10s  %s\n", "pair", "score", "gain", "status")
	for _, r := range ranked {
		status := "ok"
		if r.Degradation != bpmax.DegradeNone {
			status = "degraded:" + r.Degradation.String()
		}
		// Partition items report logZ in the score column (their Score is 0
		// by construction); Gain is already the matching log-domain statistic.
		val := float64(r.Result.Score)
		if r.Result.Algebra == bpmax.AlgebraPartition {
			val = r.Result.LogZ
		}
		fmt.Printf("%-40s %10.1f %10.1f  %s\n", r.Name, val, r.Gain, status)
	}
	if failed > 0 {
		fmt.Printf("%d of %d pairs failed (timeouts/cancellations/errors reported above)\n", failed, len(results))
	}
	return nil
}

// s1norm upper-cases and T->U normalizes a raw argument for display next
// to 0-based structure coordinates.
func s1norm(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z':
			out[i] = c - 'a' + 'A'
		}
		if out[i] == 'T' {
			out[i] = 'U'
		}
	}
	return string(out)
}
