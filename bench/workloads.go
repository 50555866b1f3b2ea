package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bpmax-go/bpmax"
)

// workloadNames is the fixed order workloads run in.
var workloadNames = []string{"fold", "partition", "single", "serve"}

// instance is one set-up copy of a workload, ready to serve ops.
type instance struct {
	// op performs op i from caller lane and returns the wall time of its
	// calls into the program, on the caller's monotonic clock. A non-nil
	// error is a failed op: the program refused it or answered wrongly.
	// rec is nil on untraced ops.
	op func(ctx context.Context, i, lane int, rec *recorder) (time.Duration, error)
	// close releases the instance and runs any after-the-fact answer checks,
	// returning how many further ops those found wrong.
	close func() (failed int, err error)
}

// workload is one closed-loop load: callers clients, each sending its next
// op only when the previous one has answered.
type workload struct {
	name     string
	callers  int
	warmOps  int // warm-up of a set-up: one pass over the input list
	roundOps int // consecutive ops per round, the unit ops_per_s is taken over
	setup    func(ctx context.Context, env *environment, in inputs, want answers) (*instance, error)
}

// environment is what a run shares across set-ups.
type environment struct {
	seed   int64
	sz     sizes
	bpmaxd string    // path of the server binary, built before any timing
	log    io.Writer // human-readable progress and diagnostics
}

// workloadByName sizes a workload. With one caller a round is a single op —
// the shortest window is the likeliest to be free of interference — so there
// ops_per_s is the reciprocal of the fastest op plus the caller's own per-op
// cost; on serve a round is ten periods of the op stream.
func workloadByName(name string, sz sizes) (workload, bool) {
	switch name {
	case "fold", "partition":
		return workload{name: name, callers: 1, warmOps: sz.pairs, roundOps: 1, setup: setupFold}, true
	case "single":
		return workload{name: name, callers: 1, warmOps: sz.strands, roundOps: 1, setup: setupSingle}, true
	case "serve":
		// Two keep-alive connections: one closed-loop caller per CPU of
		// the measured host.
		return workload{name: name, callers: 2, warmOps: sz.serveWarm, roundOps: sz.serveRound, setup: setupServe}, true
	}
	return workload{}, false
}

// setupFold serves both fold and partition: the same Session call path, one
// worker, pooled state, no cache — the algebra is the only difference.
func setupFold(_ context.Context, _ *environment, in inputs, want answers) (*instance, error) {
	partition := len(want.LogZ) > 0
	opts := []bpmax.Option{bpmax.WithWorkers(1)}
	if partition {
		opts = append(opts, partitionOptions...)
	}
	s, err := bpmax.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	op := func(ctx context.Context, i, lane int, rec *recorder) (time.Duration, error) {
		k := i % len(in.Pairs)
		p := in.Pairs[k]
		root := rec.begin("op", lane, i, -1)
		defer rec.end(root)
		t0 := time.Now()
		id := rec.begin("Session.Fold", lane, i, root)
		res, err := s.Fold(ctx, p[0], p[1])
		rec.end(id)
		if err != nil {
			return 0, err
		}
		score, logZ := res.Score, res.LogZ
		var b1, b2 string
		if !partition { // the ensemble has no single structure to trace back
			id = rec.begin("Result.Structure", lane, i, root)
			st := res.Structure()
			rec.end(id)
			b1, b2 = st.Bracket1, st.Bracket2
		}
		id = rec.begin("Result.Release", lane, i, root)
		res.Release()
		rec.end(id)
		d := time.Since(t0)
		if partition {
			if !sameLogZ(logZ, want.LogZ[k]) {
				return d, fmt.Errorf("pair %d: logZ %v, reference %v", k, logZ, want.LogZ[k])
			}
			return d, nil
		}
		if !sameScore(score, want.Scores[k]) {
			return d, fmt.Errorf("pair %d: score %v, reference %v", k, score, want.Scores[k])
		}
		if len(b1) != len(p[0]) || len(b2) != len(p[1]) {
			return d, fmt.Errorf("pair %d: structure brackets %d/%d long for strands %d/%d", k, len(b1), len(b2), len(p[0]), len(p[1]))
		}
		return d, nil
	}
	return &instance{op: op, close: func() (int, error) { s.Close(); return 0, nil }}, nil
}

func setupSingle(_ context.Context, _ *environment, in inputs, want answers) (*instance, error) {
	s, err := bpmax.NewSession(bpmax.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	op := func(ctx context.Context, i, lane int, rec *recorder) (time.Duration, error) {
		k := i % len(in.Strands)
		root := rec.begin("op", lane, i, -1)
		defer rec.end(root)
		var res *bpmax.SingleResult
		var err error
		d := rec.timed("Session.FoldSingle", lane, i, root, func() { res, err = s.FoldSingle(ctx, in.Strands[k]) })
		if err != nil {
			return 0, err
		}
		if !sameScore(res.Score, want.Scores[k]) {
			return d, fmt.Errorf("strand %d: score %v, reference %v", k, res.Score, want.Scores[k])
		}
		if len(res.Bracket) != len(in.Strands[k]) {
			return d, fmt.Errorf("strand %d: bracket %d long for %d nt", k, len(res.Bracket), len(in.Strands[k]))
		}
		return d, nil
	}
	return &instance{op: op, close: func() (int, error) { s.Close(); return 0, nil }}, nil
}

// roundResult is what one round of a workload measured.
type roundResult struct {
	opMs       []float64 // wall time of every untraced op that answered correctly
	opMsTraced []float64 // the same for traced ops
	wall       time.Duration
	failed     int
}

// runRound sends ops [first, first+n) through inst from w.callers closed-loop
// callers and waits for all of them, so consecutive rounds never overlap.
// With rec non-nil every other block of ten ops — one period of the serve
// stream, so both halves hold the same op classes — is traced: traced and
// untraced ops then see the same machine state, and their medians differ by
// the tracing alone.
func runRound(ctx context.Context, env *environment, w workload, inst *instance, first, n int, rec *recorder) roundResult {
	var next atomic.Int64
	next.Store(int64(first))
	lanes := make([]roundResult, w.callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for lane := 0; lane < w.callers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			out := &lanes[lane]
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= first+n {
					return
				}
				opRec := rec
				if i/len(servePeriod)%2 == 0 {
					opRec = nil
				}
				d, err := inst.op(ctx, i, lane, opRec)
				switch {
				case err != nil:
					if out.failed++; out.failed <= 3 {
						fmt.Fprintf(env.log, "bench: %s op %d failed: %v\n", w.name, i, err)
					}
				case opRec != nil:
					out.opMsTraced = append(out.opMsTraced, float64(d)/1e6)
				default:
					out.opMs = append(out.opMs, float64(d)/1e6)
				}
			}
		}(lane)
	}
	wg.Wait()
	res := roundResult{wall: time.Since(t0)}
	for _, l := range lanes {
		res.opMs = append(res.opMs, l.opMs...)
		res.opMsTraced = append(res.opMsTraced, l.opMsTraced...)
		res.failed += l.failed
	}
	return res
}

// measurement is everything one run of a workload observed.
type measurement struct {
	opMs       []float64       // untraced ops of the timed section
	opMsTraced []float64       // traced ops (trace pass only)
	walls      []time.Duration // rounds of the timed section
	setups     []float64       // seconds, one per set-up
	attempted  int             // every op sent, warm-up included
	failed     int
}

// measure runs workload w: setupReps set-ups (input synthesis, session or
// server start, warm-up; the last one is kept), then rounds until the first
// round boundary at or after seconds. rec is nil for the
// end-to-end metrics and set for the trace pass; want holds the reference
// answers every op is checked against.
func measure(ctx context.Context, env *environment, w workload, want answers, seconds float64, setupReps int, rec *recorder) (*measurement, error) {
	m := &measurement{}
	var inst *instance
	var err error
	closeInst := func() error {
		if inst == nil {
			return nil
		}
		failed, err := inst.close()
		m.failed += failed
		inst = nil
		return err
	}
	defer closeInst()
	for rep := 0; rep < setupReps; rep++ {
		if err := closeInst(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		in := generate(w.name, env.seed, env.sz)
		if inst, err = w.setup(ctx, env, in, want); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		warm := runRound(ctx, env, w, inst, 0, w.warmOps, nil)
		m.setups = append(m.setups, time.Since(t0).Seconds())
		m.attempted += w.warmOps
		m.failed += warm.failed
	}
	start := time.Now()
	for next := w.warmOps; ; next += w.roundOps {
		r := runRound(ctx, env, w, inst, next, w.roundOps, rec)
		m.opMs = append(m.opMs, r.opMs...)
		m.opMsTraced = append(m.opMsTraced, r.opMsTraced...)
		m.walls = append(m.walls, r.wall)
		m.attempted += w.roundOps
		m.failed += r.failed
		if ctx.Err() != nil || time.Since(start).Seconds() >= seconds {
			break
		}
	}
	if err := closeInst(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(m.opMs) == 0 {
		return nil, fmt.Errorf("%s: no op of the timed section succeeded (%d failed)", w.name, m.failed)
	}
	return m, nil
}
