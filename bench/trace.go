package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program: the program itself carries no benchmark tracing.
type span struct {
	name       string
	lane       int // the caller that made the call; one Chrome thread each
	op         int // the op the call belongs to; spans of one op share it
	id, parent int // parent is -1 for a root
	start, dur time.Duration
}

// maxSpans bounds the in-memory trace (and bench/out/trace.json): a long
// serve pass would otherwise record a span per stage of tens of thousands
// of requests. Spans past the bound are counted, not kept.
const maxSpans = 200_000

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced configuration: every method is a no-op that allocates nothing,
// so end-to-end runs pay one nil check per call site.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 on a nil recorder.
func (r *recorder) begin(name string, lane, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, lane: lane, op: op, id: id, parent: parent, start: now, dur: -1})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].dur = now - r.spans[id].start
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere — a stage the
// server reported in Server-Timing, laid out inside its request's span.
func (r *recorder) add(name string, lane, op, parent int, start, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{name: name, lane: lane, op: op, id: len(r.spans), parent: parent, start: start, dur: dur})
}

// now is the recorder's clock, for callers laying out add spans.
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// timed runs fn inside a span and returns fn's wall time. With a nil
// recorder it is a plain stopwatch.
func (r *recorder) timed(name string, lane, op, parent int, fn func()) time.Duration {
	id := r.begin(name, lane, op, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// spanSummary is the per-name roll-up printed after a traced run.
type spanSummary struct {
	name        string
	count       int
	total, self time.Duration
}

// summarize totals every span name's wall time and self time: a span's
// duration minus the part its direct children cover.
func (r *recorder) summarize() []spanSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 && s.dur > 0 {
			child[s.parent] += s.dur
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range r.spans {
		if s.dur < 0 {
			continue
		}
		sum := byName[s.name]
		if sum == nil {
			sum = &spanSummary{name: s.name}
			byName[s.name] = sum
		}
		sum.count++
		sum.total += s.dur
		if self := s.dur - child[s.id]; self > 0 {
			sum.self += self
		}
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// writeChrome flushes the spans as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto): one complete event per span, one thread
// per caller lane, parent/op carried in args.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = r.encodeChrome(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (r *recorder) encodeChrome(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type args struct {
		Op     int `json:"op"`
		ID     int `json:"id"`
		Parent int `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"` // microseconds
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	if _, err := fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":{"dropped_spans":%d},"traceEvents":[`, r.dropped); err != nil {
		return err
	}
	first := true
	for _, s := range r.spans {
		if s.dur < 0 {
			continue
		}
		b, err := json.Marshal(event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: args{Op: s.op, ID: s.id, Parent: s.parent},
		})
		if err != nil {
			return err
		}
		if !first {
			if _, err := w.Write([]byte{','}); err != nil {
				return err
			}
		}
		first = false
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
