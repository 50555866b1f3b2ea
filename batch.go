package bpmax

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"github.com/bpmax-go/bpmax/internal/fault"
)

// BatchItem is one sequence pair of a screening batch.
type BatchItem struct {
	// Name labels the pair in results (e.g. a FASTA header).
	Name string
	// Seq1, Seq2 are the two strands.
	Seq1, Seq2 string
}

// BatchResult is one completed (or failed) fold of a batch.
type BatchResult struct {
	Name string
	// Result is nil when the fold failed (Err then says why).
	Result *Result
	// Gain is Score minus the two strands' independent single-strand
	// optima — the screening statistic that ranks true interactions above
	// incidental self-structure. Both optima are read from the fold's own
	// S¹/S² substrate tables, so Gain costs nothing beyond the fold itself.
	Gain float32
	// Degradation echoes Result.Degradation for quick per-item status
	// reporting (DegradeNone when the item failed).
	Degradation Degradation
	Err         error
}

// batchBudget splits a global worker budget across concurrent batch items:
// conc items fold at once, each with perFold-way parallelism, so the total
// number of active workers never exceeds budget. Small batches get deeper
// per-fold parallelism instead of idle batch slots; large batches get one
// worker per item.
func batchBudget(budget, items int) (conc, perFold int) {
	conc = budget
	if conc > items {
		conc = items
	}
	if conc < 1 {
		conc = 1
	}
	perFold = budget / conc
	if perFold < 1 {
		perFold = 1
	}
	return conc, perFold
}

// FoldBatch folds every pair concurrently (the embarrassingly parallel
// outer level of a target screen: distinct pairs share nothing). workers
// <= 0 selects GOMAXPROCS. Per-fold options apply to every item. Results
// come back in input order; individual failures are reported per item, not
// as a batch failure. It is FoldBatchContext with a background context.
func FoldBatch(items []BatchItem, workers int, opts ...Option) []BatchResult {
	return FoldBatchContext(context.Background(), items, workers, opts...)
}

// FoldBatchContext is FoldBatch under a context: every per-item fold runs
// with ctx (so a deadline bounds the whole screen), items not yet started
// when ctx is cancelled are marked failed with ctx.Err() instead of being
// folded, and a panic while processing one item — in the fold or in the
// batch goroutine itself — fails that item only, never the batch.
//
// The workers argument is a global budget shared between the batch level
// and the per-fold level: conc = min(workers, len(items)) items fold
// concurrently, each with workers/conc-way parallelism, and when the folds
// are parallel they draw their helpers from one shared Engine of exactly
// that budget (the caller's via WithEngine, or a batch-scoped one). Batch
// concurrency times fold parallelism therefore cannot oversubscribe the
// machine, which the naive workers × WithWorkers product would.
func FoldBatchContext(ctx context.Context, items []BatchItem, workers int, opts ...Option) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	conc, perFold := batchBudget(workers, len(items))
	// The option set is parsed exactly once for the whole batch; workers
	// then fold each item through the same pre-parsed request, so per-item
	// cost excludes option closures, variant resolution and param building.
	rq := buildOptions(append(append([]Option(nil), opts...), WithWorkers(perFold)))
	// Parallel per-item folds draw their helpers from one team sized to the
	// whole budget — the caller's engine, or one scoped to this batch — which
	// caps physical parallelism even when conc folds contend for helpers.
	// Width-1 folds need no team.
	team := 1
	if perFold > 1 {
		team = workers
	}
	cfg, release := rq.cfg.ScopedEngine(team)
	defer release()
	rq.cfg = cfg
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = foldBatchItem(ctx, items[i], rq)
			}
		}()
	}
	// Dispatch until done or cancelled; undispatched items fail fast with
	// the context's error rather than burning hours after a deadline.
	sent := len(items)
	for i := range items {
		select {
		case <-ctx.Done():
			sent = i
		case next <- i:
			continue
		}
		break
	}
	close(next)
	wg.Wait()
	for i := sent; i < len(items); i++ {
		out[i] = BatchResult{Name: items[i].Name, Err: fmt.Errorf("%s: %w", items[i].Name, ctx.Err())}
	}
	return out
}

// foldBatchItem folds one batch item and computes its gain statistic. Any
// panic escaping the fold machinery is recovered here so that one poisoned
// item cannot take down the worker (and with it the process).
func foldBatchItem(ctx context.Context, it BatchItem, rq request) (br BatchResult) {
	br.Name = it.Name
	defer func() {
		if r := recover(); r != nil {
			br = BatchResult{
				Name: it.Name,
				Err:  fmt.Errorf("%s: %w", it.Name, &PanicError{Value: r, Stack: debug.Stack()}),
			}
		}
	}()
	// Failpoint: the item dies before its fold — the "one bad item in a 10k
	// screen" failure. Error mode fails this item only; panic mode exercises
	// the recover above.
	if ferr := fault.Hit(fault.SiteBatchItem); ferr != nil {
		br.Err = fmt.Errorf("%s: %w", it.Name, ferr)
		return br
	}
	res, err := rq.runFold(ctx, it.Seq1, it.Seq2)
	if err != nil {
		br.Err = fmt.Errorf("%s: %w", it.Name, err)
		return br
	}
	br.Result = res
	br.Degradation = res.Degradation
	// The whole-strand single optima are the S-table corner cells the fold
	// already computed; no refolds. Partition folds rank by the ensemble
	// analogue: the log-partition gain of interacting over folding apart
	// (log Z_12 − log Z_1 − log Z_2, a log-Boltzmann-factor in kT units).
	if res.Algebra == AlgebraPartition {
		br.Gain = float32(res.LogZ - res.LogZ1 - res.LogZ2)
	} else {
		br.Gain = res.Score - res.SingleScore1(0, res.N1-1) - res.SingleScore2(0, res.N2-1)
	}
	return br
}

// RankByGain returns the successful results sorted by descending Gain
// (ties broken by Name, then by input order, for full determinism). Failed
// items are omitted.
func RankByGain(results []BatchResult) []BatchResult {
	var ok []BatchResult
	for _, r := range results {
		if r.Err == nil && r.Result != nil {
			ok = append(ok, r)
		}
	}
	sort.SliceStable(ok, func(a, b int) bool {
		if ok[a].Gain != ok[b].Gain {
			return ok[a].Gain > ok[b].Gain
		}
		return ok[a].Name < ok[b].Name
	})
	return ok
}
