package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bpmax-go/bpmax"
	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/fourrussians"
	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/pipeline"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
	loadgen "github.com/bpmax-go/bpmax/internal/workload"
)

// layers measures every per-layer metric by calling each layer's public
// functions from here, one span per call, and deriving the numbers from the
// spans. Nothing inside the program is instrumented for it. It runs only in
// the trace pass, so the recorder is always on.
type layers struct {
	ctx    context.Context
	env    *environment
	rec    *recorder
	out    map[string]float64
	parent int // the open layer-group span new spans hang under
	quick  bool
}

// group runs fn under one span named after the layer.
func (l *layers) group(name string, fn func() error) error {
	id := l.rec.begin(name, 0, -1, -1)
	l.parent = id
	err := fn()
	l.rec.end(id)
	l.parent = -1
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return l.ctx.Err()
}

// reps scales a repeat count down to one for the smoke sizes.
func (l *layers) reps(n int) int {
	if l.quick {
		return 1
	}
	return n
}

// call times one call into a layer as a span and returns milliseconds.
func (l *layers) call(name string, fn func()) float64 {
	return float64(l.rec.timed(name, 0, -1, l.parent, fn)) / 1e6
}

// medianMs is the median of reps calls.
func (l *layers) medianMs(name string, reps int, fn func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		ms[i] = l.call(name, fn)
	}
	return median(ms)
}

// perCallNs times a call too short to time alone: batches of calls sized to
// about two milliseconds, one span per batch, median over batches.
func (l *layers) perCallNs(name string, fn func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	ns := make([]float64, l.reps(15))
	for b := range ns {
		d := l.rec.timed(name, 0, -1, l.parent, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		})
		ns[b] = float64(d) / float64(iters)
	}
	return median(ns)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runLayers runs every layer group in a fixed order. The fold loop goes
// first so the process's peak RSS and heap are the fold workload's, not a
// later probe's.
func runLayers(ctx context.Context, env *environment, rec *recorder) (out map[string]float64, err error) {
	l := &layers{ctx: ctx, env: env, rec: rec, out: map[string]float64{}, parent: -1, quick: env.sz != fullSizes}
	defer func() {
		// The probes call internal constructors on inputs the benchmark
		// generated itself; an error there is a broken build, reported as
		// a failed run instead of a crash with a live server behind it.
		if r := recover(); r != nil {
			err = fmt.Errorf("per-layer probe: %v", r)
		}
	}()
	for _, g := range []struct {
		name string
		fn   func() error
	}{
		{"layer:fill+pipeline+pool", l.fillPipelinePool},
		{"layer:maxplus", l.maxplusKernels},
		{"layer:semiring", l.semiringKernels},
		{"layer:partition-fill", l.partitionFill},
		{"layer:substrate", l.substrate},
		{"layer:cache+admission", l.cacheAdmission},
		{"layer:bpmaxd", l.bpmaxd},
	} {
		if err := l.group(g.name, g.fn); err != nil {
			return nil, err
		}
	}
	l.out["fill.roof_frac"] = l.out["fill.gflops"] / l.out["maxplus.accumulate_l2_gflops"]
	return l.out, nil
}

// fillPipelinePool measures the fold shape on one input: the layers called
// directly (substrate, fill, R0 alone, traceback), the fill on two workers,
// and the same work through Session.Fold for the pool's allocation and
// reuse counts — all inside one loop, so the ratios are not across runs.
func (l *layers) fillPipelinePool() error {
	sz := l.env.sz
	pair := generate("fold", l.env.seed, sz).Pairs[0]
	pool := ibpmax.NewPool()
	eng1, eng2 := ibpmax.NewEngine(1), ibpmax.NewEngine(2)
	defer eng1.Close()
	defer eng2.Close()
	cfg := ibpmax.Config{Workers: 1, Engine: eng1, Pool: pool}
	cfg2 := ibpmax.Config{Workers: 2, Engine: eng2, Pool: pool}
	sess, err := bpmax.NewSession(bpmax.WithWorkers(1))
	if err != nil {
		return err
	}
	defer sess.Close()
	sessionOp := func() {
		res := must(sess.Fold(l.ctx, pair[0], pair[1]))
		res.Structure()
		res.Release()
	}
	sessionOp() // fill the session's pool before counting allocations and reuse
	poolBefore := *sess.Stats().Pool

	var solve, solve2, r0, traceback, mallocs, allocKB []float64
	var heapPeak uint64
	var before, after runtime.MemStats
	for i := 0; i < l.reps(3); i++ {
		p := must(pool.NewProblem(pair[0], pair[1], score.DefaultParams()))
		var ft *ibpmax.FTable
		solve = append(solve, l.call("SolveContext", func() {
			ft = must(ibpmax.SolveContext(l.ctx, p, ibpmax.VariantHybridTiled, cfg))
		}))
		traceback = append(traceback, l.call("Traceback", func() { ibpmax.Traceback(p, ft) }))
		ft.Release()
		solve2 = append(solve2, l.call("SolveContext/2 workers", func() {
			must(ibpmax.SolveContext(l.ctx, p, ibpmax.VariantHybridTiled, cfg2)).Release()
		}))
		r0 = append(r0, l.call("SolveDMP", func() { ibpmax.SolveDMP(p, ibpmax.DMPTiled, cfg).Release() }))
		p.Release()

		runtime.ReadMemStats(&before)
		l.call("Session.Fold+Structure+Release", sessionOp)
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		allocKB = append(allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		heapPeak = max(heapPeak, after.HeapInuse)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	poolAfter := *sess.Stats().Pool
	shellHits := func(s bpmax.PoolStats) int64 {
		return s.ProblemHits + s.FTableHits + s.WTableHits + s.SolverHits + s.ResultHits
	}
	shellMisses := func(s bpmax.PoolStats) int64 {
		return s.ProblemMisses + s.FTableMisses + s.WTableMisses + s.SolverMisses + s.ResultMisses
	}
	hits := shellHits(poolAfter) - shellHits(poolBefore)
	o := l.out
	o["fill.solve_ms"] = median(solve)
	o["fill.r0_ms"] = median(r0)
	o["fill.traceback_ms"] = median(traceback)
	o["fill.gflops"] = float64(ibpmax.BPMaxFlops(sz.foldN1, sz.foldN2)) / (median(solve) * 1e6)
	o["fill.ftable_bytes_computed"] = float64(bpmax.EstimateBytes(sz.foldN1, sz.foldN2))
	o["engine.speedup_w2"] = median(solve) / median(solve2)
	es := eng2.Stats()
	o["engine.helper_recruit_ratio"] = ratio(es.HelpersRecruited, es.HelperOffers)
	o["pool.allocs_per_op"] = median(mallocs)
	o["pool.alloc_kb_per_op"] = median(allocKB)
	o["pool.hit_ratio"] = ratio(hits, hits+shellMisses(poolAfter)-shellMisses(poolBefore))
	o["pool.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	o["pool.rss_peak_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	// Phase split of the same fold, from the per-fold record the public
	// WithMetrics option already fills.
	var accum, finalize []float64
	for i := 0; i < l.reps(3); i++ {
		l.call("Session.FoldWith(WithMetrics)", func() {
			res := must(sess.FoldWith(l.ctx, pair[0], pair[1], bpmax.WithMetrics(bpmax.NewMetrics())))
			accum = append(accum, float64(res.Metrics.Phases[bpmax.PhaseAccum].Nanos)/1e6)
			finalize = append(finalize, float64(res.Metrics.Phases[bpmax.PhaseFinalize].Nanos)/1e6)
			res.Release()
		})
	}
	o["fill.accumulate_ms"] = median(accum)
	o["fill.finalize_ms"] = median(finalize)

	// A screen: short targets against one long query, all CPUs.
	var items []bpmax.BatchItem
	r := newRNG(l.env.seed, "layer-screen", 0)
	for t := 0; t < sz.screenTargets; t++ {
		items = append(items, bpmax.BatchItem{Name: fmt.Sprint(t), Seq1: r.seq(sz.foldN1), Seq2: pair[1]})
	}
	screen, err := bpmax.NewSession()
	if err != nil {
		return err
	}
	defer screen.Close()
	o["pipeline.batch_item_ms"] = l.call("Session.FoldBatch", func() {
		for _, br := range screen.FoldBatch(l.ctx, items, 0) {
			if br.Err != nil {
				panic(br.Err)
			}
			br.Result.Release()
		}
	}) / float64(len(items))

	// The banded scan shares the fill kernels but not the table layout.
	wr := newRNG(l.env.seed, "layer-window", 0)
	wp := must(pool.NewProblem(wr.seq(sz.windowN), wr.seq(sz.windowN), score.DefaultParams()))
	defer wp.Release()
	o["fill.windowed_ms"] = l.medianMs("SolveWindowedContext", l.reps(3), func() {
		must(ibpmax.SolveWindowedContext(l.ctx, wp, sz.window, sz.window, cfg)).Release()
	})

	// Pipeline overhead is tens of microseconds, so it is resolved where
	// a fold takes milliseconds, not hundreds of them: the serve shape,
	// the direct calls and the Session call alternating on one pair.
	sp := generate("serve", l.env.seed, sz).Pairs[0]
	var direct, session []float64
	for i := 0; i < l.reps(60); i++ {
		direct = append(direct, l.call("NewProblem+SolveContext+Traceback", func() {
			p := must(pool.NewProblem(sp[0], sp[1], score.DefaultParams()))
			ft := must(ibpmax.SolveContext(l.ctx, p, ibpmax.VariantHybridTiled, cfg))
			ibpmax.Traceback(p, ft)
			ft.Release()
			p.Release()
		}))
		session = append(session, l.call("Session.Fold+Structure+Release/serve shape", func() {
			res := must(sess.Fold(l.ctx, sp[0], sp[1]))
			res.Structure()
			res.Release()
		}))
	}
	o["pipeline.overhead_ms"] = median(session) - median(direct)
	o["pipeline.overhead_frac"] = o["pipeline.overhead_ms"] / median(direct)
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// maxplusKernels measures the streaming kernels against the paper's own
// yardstick, Y = max(a+X, Y): in L1 (two 16 KiB arrays in a 48 KiB L1d) and
// in L2 (two 512 KiB arrays in a 2 MiB L2). The host's 260 MiB L3 is shared
// with other tenants, so no DRAM roof is claimed.
func (l *layers) maxplusKernels() error {
	const l1 = 16 << 10 / 4  // float32s in 16 KiB
	const l2 = 512 << 10 / 4 // float32s in 512 KiB
	gflops := func(name string, n int, kernel func(y, x []float32, a float32)) float64 {
		y, x := make([]float32, n), make([]float32, n)
		for i := range x {
			x[i] = float32(i % 17)
		}
		ns := l.perCallNs(name, func() { kernel(y, x, 0.5) })
		return maxplus.FlopsPerElement * float64(n) / ns
	}
	o := l.out
	o["maxplus.accumulate_l1_gflops"] = gflops("maxplus.Accumulate/16KiB", l1, maxplus.Accumulate)
	o["maxplus.accumulate8_l1_gflops"] = gflops("maxplus.Accumulate8/16KiB", l1, maxplus.Accumulate8)
	o["maxplus.accumulate_l2_gflops"] = gflops("maxplus.Accumulate/512KiB", l2, maxplus.Accumulate)
	// The rejected k2-innermost schedule: one operand walked down a column.
	const side = 64 // a side×side float32 box is 16 KiB
	a, box := make([]float32, side), make([]float32, side*side)
	var sink float32
	ns := l.perCallNs("maxplus.DotMaxPlusStride/16KiB", func() {
		for col := 0; col < side; col++ {
			sink += maxplus.DotMaxPlusStride(a, box[col:], side)
		}
	})
	_ = sink
	o["maxplus.gather_l1_gflops"] = maxplus.FlopsPerElement * side * side / ns
	return nil
}

// semiringKernels times the Accum closure of each algebra on 4096 elements:
// the per-element cost the generic fill pays, and the ratio ROADMAP item 2
// wants to shrink.
func (l *layers) semiringKernels() error {
	const n = 4096
	y32, x32 := make([]float32, n), make([]float32, n)
	y64, x64 := make([]float64, n), make([]float64, n)
	for i := range x32 {
		x32[i], x64[i] = float32(i%17), float64(i%17)
	}
	mp, lse := semiring.MaxPlusKernels(false), semiring.LogSumExpKernels()
	o := l.out
	o["semiring.maxplus_accum_ns_per_elem"] = l.perCallNs("semiring.MaxPlusKernels.Accum", func() { mp.Accum(y32, x32, 0.5) }) / n
	o["semiring.lse_accum_ns_per_elem"] = l.perCallNs("semiring.LogSumExpKernels.Accum", func() {
		// Reset y so the running log-sum does not drift upward until
		// exp(x-y) underflows and the kernel's cost changes.
		clear(y64)
		lse.Accum(y64, x64, 0.5)
	}) / n
	o["semiring.lse_over_maxplus"] = o["semiring.lse_accum_ns_per_elem"] / o["semiring.maxplus_accum_ns_per_elem"]
	return nil
}

// partitionFill is the float64 log-sum-exp fill against the float32
// max-plus fill at the same shape and schedule, substrates prebuilt.
func (l *layers) partitionFill() error {
	sz := l.env.sz
	pair := generate("partition", l.env.seed, sz).Pairs[0]
	pool := ibpmax.NewPool()
	cfg := ibpmax.Config{Workers: 1, Pool: pool}
	p := must(pool.NewProblem(pair[0], pair[1], score.DefaultParams()))
	defer p.Release()
	ps := must(ibpmax.BuildPartitionSub(l.ctx, p, 1))
	o := l.out
	o["fill.partition_solve_ms"] = l.medianMs("SolvePartitionContext", l.reps(5), func() {
		must(ibpmax.SolvePartitionContext(l.ctx, p, ps, ibpmax.VariantHybridTiled, cfg)).Release()
	})
	maxplusMs := l.medianMs("SolveContext/partition shape", l.reps(9), func() {
		must(ibpmax.SolveContext(l.ctx, p, ibpmax.VariantHybridTiled, cfg)).Release()
	})
	o["fill.partition_over_maxplus"] = o["fill.partition_solve_ms"] / maxplusMs
	return nil
}

// substrate times the three single-strand fills and the traceback.
func (l *layers) substrate() error {
	sz := l.env.sz
	params := score.DefaultParams()
	maxStep, _ := params.Model.IntegerBounded()
	scoreOf := func(n int) nussinov.ScoreFunc {
		s := must(rna.New(newRNG(l.env.seed, "layer-substrate", n).seq(n)))
		tab := score.Build(s, s, params)
		return func(i, j int) float32 { return tab.Score1(i, j) }
	}
	big, small := scoreOf(sz.singleN), scoreOf(sz.nussinovSmall)
	var table *nussinov.Table
	o := l.out
	o["nussinov.classic_build_ms_n1024"] = l.medianMs("nussinov.Build/large", l.reps(3), func() { table = nussinov.Build(sz.singleN, big) })
	o["nussinov.classic_build_ms_n256"] = l.medianMs("nussinov.Build/small", l.reps(9), func() { nussinov.Build(sz.nussinovSmall, small) })
	o["nussinov.traceback_ms"] = l.medianMs("nussinov.Table.Traceback", l.reps(9), func() { table.Traceback(big) })
	o["fourrussians.build_ms"] = l.medianMs("fourrussians.Build", l.reps(5), func() { fourrussians.Build(sz.singleN, big, maxStep) })
	o["fourrussians.speedup_vs_classic"] = o["nussinov.classic_build_ms_n1024"] / o["fourrussians.build_ms"]
	lse := semiring.LogSumExpKernels()
	o["nussinov.generic_f64_build_ms"] = l.medianMs("nussinov.BuildG[float64]", l.reps(9), func() {
		nussinov.BuildG(sz.genericN, lse, func(i, j int) float64 { return float64(small(i, j)) })
	})
	return nil
}

// cacheAdmission times the warm-hit path of the content-addressed cache
// and the uncontended admission gate.
func (l *layers) cacheAdmission() error {
	pair := generate("serve", l.env.seed, l.env.sz).Pairs[0]
	sess, err := bpmax.NewSession(bpmax.WithWorkers(1), bpmax.WithCache(bpmax.NewCache(bpmax.CacheConfig{})))
	if err != nil {
		return err
	}
	defer sess.Close()
	hit := func() { must(sess.Fold(l.ctx, pair[0], pair[1])).Release() }
	hit() // the one miss that fills the cache
	o := l.out
	o["cache.hit_us"] = l.perCallNs("Session.Fold/result-cache hit", hit) / 1e3
	o["cache.key_hash_ns"] = l.perCallNs("pipeline.Hasher", func() {
		h := pipeline.NewHasher()
		h.Str(pair[0])
		h.Str(pair[1])
		_ = h.Sum()
		h.Release()
	})
	gate := pipeline.NewAdmission(2, 64)
	o["admission.acquire_ns"] = l.perCallNs("pipeline.Admission.Acquire+Release", func() {
		if err := gate.Acquire(l.ctx); err != nil {
			panic(err)
		}
		gate.Release()
	})
	return nil
}

// serverStages are the Server-Timing entries reported as per-layer
// metrics. encode is absent from the header (the server stamps the header
// before it encodes), so it is read from /debug/requests instead.
var serverStages = []string{"decode", "queue", "cache-hit", "substrate", "accumulate", "finalize", "traceback", "encode", "other"}

// serverProbe is what one server of the bpmaxd group measured.
type serverProbe struct {
	srv    *server
	name   string
	ms     map[opKind][]float64
	stages map[string][]float64 // microseconds, fold requests only
	failed int
}

// do sends op, as a span, and keeps its latency and published stages.
func (sp *serverProbe) do(l *layers, op serveOp, keep bool) {
	id := l.rec.begin(sp.name+"/"+op.kind.String(), 0, -1, l.parent)
	_, d, timing, err := sp.srv.do(l.ctx, op)
	l.rec.end(id)
	if err != nil {
		sp.failed++
		return
	}
	if !keep {
		return
	}
	sp.ms[op.kind] = append(sp.ms[op.kind], float64(d)/1e6)
	if op.kind != opBatch {
		for stage, d := range loadgen.ParseServerTiming(timing) {
			sp.stages[stage] = append(sp.stages[stage], float64(d)/1e3)
		}
	}
}

// bpmaxd drives real servers one request at a time — a primed hot set,
// then hits, unique misses and batches in the serve workload's own ratio —
// so each class's latency and each server-published stage stand alone,
// free of the contention the serve workload adds on purpose. A second
// server with request tracing off takes the same ops, period by period in
// turn, which prices the server's own tracing without host drift.
func (l *layers) bpmaxd() (err error) {
	sz := l.env.sz
	hot := generate("serve", l.env.seed, sz).Pairs
	periods := 2 * l.reps(20) // alternating between the two servers
	var probes [2]*serverProbe
	for i, extra := range [][]string{nil, {"-trace-requests=false"}} {
		srv, serr := startServer(l.ctx, l.env.bpmaxd, 2, extra...)
		if serr != nil {
			return serr
		}
		defer func() { // reads the named result, so no := of err below
			if err != nil {
				srv.kill()
			}
		}()
		probes[i] = &serverProbe{srv: srv, name: strings.Join(append([]string{"bpmaxd"}, extra...), " "),
			ms: map[opKind][]float64{}, stages: map[string][]float64{}}
		for _, p := range hot {
			probes[i].do(l, foldOp(opHit, p), false)
		}
	}
	traced, untraced := probes[0], probes[1]
	var c0, c1 bpmax.CacheStats
	if err = traced.srv.getJSON(l.ctx, "/v1/cache", &c0); err != nil {
		return err
	}
	for i := 0; i < periods*len(servePeriod); i++ {
		sp := probes[i/len(servePeriod)%2]
		sp.do(l, makeServeOp(l.env.seed, i, hot, sz), true)
	}
	// The same unseen pair from both connections at once: the second
	// request should ride the first one's fill.
	for i := 0; i < periods; i++ {
		r := newRNG(l.env.seed, "layer-singleflight", i)
		op := foldOp(opMiss, [2]string{r.seq(sz.serveN1), r.seq(sz.serveN2)})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				traced.srv.do(l.ctx, op)
			}()
		}
		wg.Wait()
	}
	if err = traced.srv.getJSON(l.ctx, "/v1/cache", &c1); err != nil {
		return err
	}
	// encode is absent from Server-Timing; the request ring has it.
	var ring struct {
		Recent []struct {
			Op     string `json:"op"`
			Stages []struct {
				Stage     string `json:"stage"`
				BusyNanos int64  `json:"busy_nanos"`
			} `json:"stages"`
		} `json:"recent"`
	}
	if err = traced.srv.getJSON(l.ctx, "/debug/requests", &ring); err != nil {
		return err
	}
	for _, t := range ring.Recent {
		for _, s := range t.Stages {
			if t.Op == "fold" && s.Stage == "encode" {
				traced.stages["encode"] = append(traced.stages["encode"], float64(s.BusyNanos)/1e3)
			}
		}
	}
	if err = errors.Join(traced.srv.stop(), untraced.srv.stop()); err != nil {
		return err
	}

	// The same miss, in-process: what is left of miss latency is HTTP.
	sess, serr := bpmax.NewSession()
	if serr != nil {
		return serr
	}
	defer sess.Close()
	r := newRNG(l.env.seed, "layer-inprocess", 0)
	inproc := l.medianMs("Session.Fold/unique serve-shape pair", l.reps(40), func() {
		res := must(sess.Fold(l.ctx, r.seq(sz.serveN1), r.seq(sz.serveN2)))
		res.Structure()
		res.Release()
	})

	o := l.out
	o["bpmaxd.hit_ms_p50"] = median(traced.ms[opHit])
	o["bpmaxd.miss_ms_p50"] = median(traced.ms[opMiss])
	o["bpmaxd.batch_ms_p50"] = median(traced.ms[opBatch])
	o["bpmaxd.http_overhead_ms"] = o["bpmaxd.miss_ms_p50"] - inproc
	for _, stage := range serverStages {
		o["bpmaxd.stage."+stage+"_us"] = median(traced.stages[stage])
	}
	o["bpmaxd.boot_ms"] = traced.srv.bootMs
	o["bpmaxd.failed_ops"] = float64(traced.failed + untraced.failed)
	o["bpmaxd.reqtrace_overhead_frac"] = median(traced.ms[opHit])/median(untraced.ms[opHit]) - 1
	o["admission.queue_wait_ms_p50"] = median(traced.stages["queue"]) / 1e3
	o["cache.result_hit_ratio"] = ratio(c1.ResultHits-c0.ResultHits, c1.ResultHits-c0.ResultHits+c1.ResultMisses-c0.ResultMisses)
	o["cache.substrate_hit_ratio"] = ratio(c1.SubstrateHits-c0.SubstrateHits, c1.SubstrateHits-c0.SubstrateHits+c1.SubstrateMisses-c0.SubstrateMisses)
	o["cache.singleflight_shared"] = float64(c1.SingleFlightShared - c0.SingleFlightShared)
	return nil
}

// getJSON fetches one of the server's introspection documents.
func (s *server) getJSON(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, into)
}
