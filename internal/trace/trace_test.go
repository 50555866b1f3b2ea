package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bpmax-go/bpmax/internal/metrics"
)

// fill is a fold record with d credited to phase p.
func fill(p metrics.Phase, d time.Duration) *metrics.FoldMetrics {
	fm := &metrics.FoldMetrics{}
	fm.Phases[p] = metrics.PhaseStat{Nanos: int64(d), Units: 1}
	return fm
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for st := Stage(0); st < StageCount; st++ {
		name := st.String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", st)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if StageCount.String() != "unknown" {
		t.Fatalf("StageCount.String() = %q, want unknown", StageCount.String())
	}
}

func TestStageOfPhaseAligned(t *testing.T) {
	// The solver enum must map index-for-index onto the substrate block of
	// the stage enum — same names, same order: AddFill files phase p under
	// stage StageSubstrate + p.
	for p := metrics.Phase(0); p < metrics.PhaseCount; p++ {
		st := StageSubstrate + Stage(p)
		if st >= StageCount {
			t.Fatalf("phase %v maps out of range", p)
		}
		if got, want := st.String(), p.String(); got != want {
			t.Fatalf("phase %v maps to stage %q", p, got)
		}
	}
}

func TestTraceAccumulates(t *testing.T) {
	tr := New("req1", "fold")
	tr.SetName("pair-a")
	tr.SetLabel("partition_domain", "log")
	tr.SetLabel("partition_domain", "scaled") // the later value wins
	s1 := tr.Begin()
	time.Sleep(time.Millisecond)
	tr.End(StageQueue, s1)
	s2 := tr.Begin()
	tr.End(StageQueue, s2)
	tr.AddFill(time.Now(), fill(metrics.PhaseTriangle, 5*time.Millisecond))
	tr.Finish(200)

	snap := tr.Snapshot()
	if snap.ID != "req1" || snap.Op != "fold" || snap.Name != "pair-a" {
		t.Fatalf("snapshot identity = %+v", snap)
	}
	if snap.Status != 200 {
		t.Fatalf("status = %d", snap.Status)
	}
	if len(snap.Labels) != 1 || snap.Labels["partition_domain"] != "scaled" {
		t.Fatalf("labels = %v", snap.Labels)
	}
	if snap.TotalNanos <= 0 {
		t.Fatalf("total = %d", snap.TotalNanos)
	}
	byStage := map[string]StageSnapshot{}
	for _, s := range snap.Stages {
		byStage[s.Stage] = s
	}
	q := byStage["queue"]
	if q.Count != 2 || q.BusyNanos < int64(time.Millisecond) {
		t.Fatalf("queue stat = %+v", q)
	}
	if q.FirstNanos < 0 || q.LastNanos < q.FirstNanos {
		t.Fatalf("queue extent = [%d, %d]", q.FirstNanos, q.LastNanos)
	}
	tri := byStage["triangle"]
	if tri.Count != 1 || tri.BusyNanos != int64(5*time.Millisecond) {
		t.Fatalf("triangle stat = %+v", tri)
	}
	if _, ok := byStage["decode"]; ok {
		t.Fatal("unused stage must be omitted from the snapshot")
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if !tr.Begin().IsZero() {
		t.Fatal("nil Begin must return the zero time")
	}
	tr.End(StageDecode, time.Now()) // must not panic
	tr.End(StageDecode, time.Time{})
	tr.AddFill(time.Now(), fill(metrics.PhaseTriangle, time.Second))
	tr.SetName("x")
	tr.SetLabel("partition_domain", "scaled")
	tr.Finish(200)
	if tr.ID() != "" {
		t.Fatal("nil ID must be empty")
	}
	if tr.ServerTiming() != "" {
		t.Fatal("nil ServerTiming must be empty")
	}
	if snap := tr.Snapshot(); snap.ID != "" || len(snap.Stages) != 0 {
		t.Fatalf("nil Snapshot = %+v", snap)
	}
}

func TestDisarmedPathAllocsNothing(t *testing.T) {
	ctx := context.Background()
	fm := fill(metrics.PhaseTriangle, time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		tr := FromContext(ctx)
		start := tr.Begin()
		tr.End(StageSubstrate, start)
		tr.AddFill(start, fm)
	})
	if allocs != 0 {
		t.Fatalf("disarmed trace path allocates %v per op, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(NewID(), "fold")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context round trip")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil")
	}
	base := context.Background()
	if NewContext(base, nil) != base {
		t.Fatal("NewContext(nil) must return ctx unchanged")
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("ids %q %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("consecutive ids collide: %q", a)
	}
	if _, err := strconv.ParseUint(a, 16, 64); err != nil {
		t.Fatalf("id %q is not hex: %v", a, err)
	}
}

// TestAddFillCopiesPhaseRecord: the trace reads a fill's phases from the
// fold's own record — busy time is the recorded nanos to the nanosecond,
// each credited fill phase is one span over the fill's extent, phases the
// solver never ran stay out, and the substrate phase is left to the
// pipeline's own span.
func TestAddFillCopiesPhaseRecord(t *testing.T) {
	tr := New("f", "fold")
	fm := &metrics.FoldMetrics{}
	fm.Phases[metrics.PhaseSubstrate] = metrics.PhaseStat{Nanos: 7e6, Units: 1}
	fm.Phases[metrics.PhaseAccum] = metrics.PhaseStat{Nanos: 3e6, Units: 40}
	fm.Phases[metrics.PhaseFinalize] = metrics.PhaseStat{Nanos: 2e6} // interrupted: time, no units
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.AddFill(start, fm)
	tr.Finish(200)

	snap := tr.Snapshot()
	got := map[string]StageSnapshot{}
	for _, s := range snap.Stages {
		got[s.Stage] = s
	}
	if len(got) != 2 {
		t.Fatalf("stages = %+v, want accumulate and finalize only", snap.Stages)
	}
	for name, want := range map[string]int64{"accumulate": 3e6, "finalize": 2e6} {
		s := got[name]
		if s.BusyNanos != want || s.Count != 1 {
			t.Errorf("%s = %+v, want busy %d in one span", name, s, want)
		}
		if s.FirstNanos < 0 || s.LastNanos-s.FirstNanos < int64(time.Millisecond) || s.LastNanos > snap.TotalNanos {
			t.Errorf("%s extent [%d, %d] is not the fill's (total %d)", name, s.FirstNanos, s.LastNanos, snap.TotalNanos)
		}
	}
	if got["accumulate"].FirstNanos != got["finalize"].FirstNanos || got["accumulate"].LastNanos != got["finalize"].LastNanos {
		t.Errorf("fill phases must share the fill's extent: %+v", snap.Stages)
	}
	// A second fill under the same trace (a batch item) accumulates.
	tr.AddFill(time.Now(), fm)
	for _, s := range tr.Snapshot().Stages {
		if s.Stage == "accumulate" && (s.BusyNanos != 6e6 || s.Count != 2) {
			t.Errorf("second fill: accumulate = %+v, want busy 6ms in 2 spans", s)
		}
	}
}

func TestServerTimingLedger(t *testing.T) {
	tr := New("st", "fold")
	tr.AddFill(time.Now(), fill(metrics.PhaseAccum, 2*time.Millisecond))
	s := tr.Begin()
	tr.End(StageQueue, s)
	// Encode must be excluded: the header is written before the body.
	tr.End(StageEncode, tr.Begin())

	// In production attributed time is always real elapsed time, so wall
	// total ≥ Σ stages; the synthetic 2ms above needs the clock to catch up.
	time.Sleep(3 * time.Millisecond)
	header := tr.ServerTiming()
	entries := parseServerTiming(t, header)
	if _, ok := entries["encode"]; ok {
		t.Fatalf("encode leaked into Server-Timing: %q", header)
	}
	total, ok := entries["total"]
	if !ok {
		t.Fatalf("no total entry in %q", header)
	}
	other, ok := entries["other"]
	if !ok {
		t.Fatalf("no other entry in %q", header)
	}
	var attributed float64
	for name, ms := range entries {
		if name != "total" && name != "other" {
			attributed += ms
		}
	}
	// The ledger closes by construction: stages + other ≈ total.
	if diff := total - (attributed + other); diff > 0.01 || diff < -0.01 {
		t.Fatalf("ledger gap %.3fms in %q", diff, header)
	}
	if entries["accumulate"] != 2 {
		t.Fatalf("accumulate = %.3fms, want the recorded 2ms (%q)", entries["accumulate"], header)
	}
}

func parseServerTiming(t *testing.T, header string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		name, rest, ok := strings.Cut(part, ";dur=")
		if !ok {
			t.Fatalf("malformed Server-Timing entry %q", part)
		}
		ms, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", part, err)
		}
		out[name] = ms
	}
	return out
}

func TestConcurrentTraceWrites(t *testing.T) {
	// Batch items share one request trace across worker goroutines; the
	// accumulation must tolerate that (run under -race in CI).
	tr := New("conc", "batch")
	fm := fill(metrics.PhaseTriangle, time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.AddFill(time.Now(), fm)
				s := tr.Begin()
				tr.End(StageSubstrate, s)
			}
		}()
	}
	wg.Wait()
	tr.Finish(200)
	snap := tr.Snapshot()
	for _, s := range snap.Stages {
		if s.Stage == "triangle" && s.Count != 8*200 {
			t.Fatalf("triangle count = %d, want %d", s.Count, 8*200)
		}
	}
}

func TestRingRecentRotation(t *testing.T) {
	r := NewRing(3, 2)
	for i := 0; i < 5; i++ {
		r.Record(Snapshot{ID: strconv.Itoa(i), TotalNanos: int64(i + 1)})
	}
	snap := r.Snapshot()
	if snap.Total != 5 {
		t.Fatalf("total = %d", snap.Total)
	}
	got := make([]string, 0, len(snap.Recent))
	for _, s := range snap.Recent {
		got = append(got, s.ID)
	}
	if want := []string{"2", "3", "4"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("recent = %v, want %v", got, want)
	}
	if len(snap.Slowest) != 2 || snap.Slowest[0].ID != "4" || snap.Slowest[1].ID != "3" {
		t.Fatalf("slowest = %+v", snap.Slowest)
	}
}

func TestRingSlowestOrdering(t *testing.T) {
	r := NewRing(8, 3)
	for _, total := range []int64{5, 1, 9, 3, 7, 2} {
		r.Record(Snapshot{ID: strconv.FormatInt(total, 10), TotalNanos: total})
	}
	snap := r.Snapshot()
	if len(snap.Slowest) != 3 {
		t.Fatalf("slowest len = %d", len(snap.Slowest))
	}
	for i, want := range []int64{9, 7, 5} {
		if snap.Slowest[i].TotalNanos != want {
			t.Fatalf("slowest[%d] = %d, want %d", i, snap.Slowest[i].TotalNanos, want)
		}
	}
}

func TestRingPartialAndClamp(t *testing.T) {
	r := NewRing(0, 0) // clamped to 1/1
	snap := r.Snapshot()
	if len(snap.Recent) != 0 || len(snap.Slowest) != 0 || snap.Total != 0 {
		t.Fatalf("empty ring snapshot = %+v", snap)
	}
	r.Record(Snapshot{ID: "a", TotalNanos: 1})
	r.Record(Snapshot{ID: "b", TotalNanos: 2})
	snap = r.Snapshot()
	if len(snap.Recent) != 1 || snap.Recent[0].ID != "b" {
		t.Fatalf("recent = %+v", snap.Recent)
	}
	if len(snap.Slowest) != 1 || snap.Slowest[0].ID != "b" {
		t.Fatalf("slowest = %+v", snap.Slowest)
	}
	var nilRing *Ring
	nilRing.Record(Snapshot{}) // must not panic
	if s := nilRing.Snapshot(); s.Total != 0 {
		t.Fatalf("nil ring snapshot = %+v", s)
	}
}

func TestRingConcurrentHammer(t *testing.T) {
	// -race hammer: concurrent writers and readers on one ring.
	r := NewRing(16, 8)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Record(Snapshot{
					ID:         NewID(),
					TotalNanos: int64(g*1000 + i),
					Stages:     []StageSnapshot{{Stage: "queue", Count: 1}},
				})
			}
		}(g)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := r.Snapshot()
				for i := 1; i < len(snap.Slowest); i++ {
					if snap.Slowest[i].TotalNanos > snap.Slowest[i-1].TotalNanos {
						panic("slowest out of order")
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if snap := r.Snapshot(); snap.Total != 4*500 {
		t.Fatalf("total = %d, want %d", snap.Total, 4*500)
	}
}

func TestWriteChrome(t *testing.T) {
	start := time.Unix(100, 0)
	snaps := []Snapshot{
		{
			ID: "aa", Op: "fold", Name: "p1", Start: start,
			Labels:     map[string]string{"partition_domain": "scaled"},
			TotalNanos: int64(10 * time.Millisecond), Status: 200,
			Stages: []StageSnapshot{
				{Stage: "queue", BusyNanos: int64(time.Millisecond), Count: 1, FirstNanos: 0, LastNanos: int64(time.Millisecond)},
				{Stage: "triangle", BusyNanos: int64(6 * time.Millisecond), Count: 40, FirstNanos: int64(2 * time.Millisecond), LastNanos: int64(9 * time.Millisecond)},
			},
		},
		{
			ID: "bb", Op: "scan", Start: start.Add(time.Millisecond),
			TotalNanos: int64(3 * time.Millisecond), Status: 200,
		},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome export is not valid JSON")
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var sawTriangle, sawMeta, sawLabel bool
	for _, ev := range file.TraceEvents {
		switch ev["name"] {
		case "triangle":
			sawTriangle = true
			if ev["ph"] != "X" {
				t.Fatalf("triangle event is %v, want X", ev["ph"])
			}
			if ts := ev["ts"].(float64); ts != 2000 { // 2ms after epoch, in µs
				t.Fatalf("triangle ts = %v µs, want 2000", ts)
			}
			if dur := ev["dur"].(float64); dur != 7000 {
				t.Fatalf("triangle dur = %v µs, want 7000", dur)
			}
		case "process_name":
			sawMeta = true
		case "fold p1":
			if args, _ := ev["args"].(map[string]any); args["partition_domain"] != "scaled" {
				t.Fatalf("request event args = %v, want the trace's labels", ev["args"])
			}
			sawLabel = true
		}
	}
	if !sawTriangle || !sawMeta || !sawLabel {
		t.Fatalf("missing events (triangle=%v meta=%v label=%v)", sawTriangle, sawMeta, sawLabel)
	}
	// Empty input must still produce a loadable file.
	buf.Reset()
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("empty export malformed: %s", buf.String())
	}
}
