package workload

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseServerTiming(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want map[string]time.Duration
	}{
		{
			name: "spine header",
			in:   "queue;dur=1.5, substrate;dur=8, other;dur=0.5, total;dur=10",
			want: map[string]time.Duration{
				"queue":     1500 * time.Microsecond,
				"substrate": 8 * time.Millisecond,
				"other":     500 * time.Microsecond,
				"total":     10 * time.Millisecond,
			},
		},
		{
			name: "extra params and spacing",
			in:   ` cache ; desc="L1" ; dur=0.25 ,encode;dur=2;desc=x`,
			want: map[string]time.Duration{
				"cache":  250 * time.Microsecond,
				"encode": 2 * time.Millisecond,
			},
		},
		{
			name: "entries without dur are dropped",
			in:   "missedCache, db;dur=abc, ok;dur=3",
			want: map[string]time.Duration{"ok": 3 * time.Millisecond},
		},
		{name: "empty", in: "", want: nil},
		{name: "garbage", in: ";;;,,,;dur=,=", want: nil},
	}
	for _, tc := range cases {
		got := ParseServerTiming(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("%s: %s = %v, want %v", tc.name, k, got[k], v)
			}
		}
		if tc.want == nil && got != nil {
			t.Errorf("%s: want nil map, got %v", tc.name, got)
		}
	}
}

// sample builds a stagedSample whose total is the sum of its stages and
// whose client latency exceeds the total by netOverhead.
func sample(netOverhead time.Duration, stages map[string]time.Duration) stagedSample {
	var total time.Duration
	for _, d := range stages {
		total += d
	}
	return stagedSample{client: total + netOverhead, total: total, stages: stages}
}

// TestReduceStagesTailAttribution builds a run where typical requests are
// substrate-bound but the single slow outlier spent its time queueing: the
// tail summary must blame the queue, not the substrate.
func TestReduceStagesTailAttribution(t *testing.T) {
	var samples []stagedSample
	for i := 0; i < 49; i++ {
		samples = append(samples, sample(time.Millisecond, map[string]time.Duration{
			"queue":     100 * time.Microsecond,
			"substrate": 2 * time.Millisecond,
			"other":     100 * time.Microsecond,
		}))
	}
	samples = append(samples, sample(time.Millisecond, map[string]time.Duration{
		"queue":     40 * time.Millisecond,
		"substrate": 2 * time.Millisecond,
		"other":     100 * time.Microsecond,
	}))

	stages, dominant, coverage := reduceStages(samples)
	if !strings.HasPrefix(dominant, "queue: ") {
		t.Fatalf("tail dominant = %q, want queue", dominant)
	}
	byName := map[string]StageReport{}
	for i, s := range stages {
		byName[s.Stage] = s
		if i > 0 && !stageLess(stages[i-1].Stage, s.Stage) {
			t.Errorf("stages out of spine order: %s before %s", stages[i-1].Stage, s.Stage)
		}
	}
	q := byName["queue"]
	if q.TailShare < 0.90 {
		t.Errorf("queue tail share = %.2f, want >0.90 (tail is one queue-bound request)", q.TailShare)
	}
	if q.Count != 50 {
		t.Errorf("queue count = %d, want 50", q.Count)
	}
	// Quantiles are over all samples: the p50 queue is the typical 100µs,
	// the p99 queue is the outlier's 40ms.
	if q.P50Nanos != int64(100*time.Microsecond) {
		t.Errorf("queue p50 = %d, want 100µs", q.P50Nanos)
	}
	if q.P99Nanos != int64(40*time.Millisecond) {
		t.Errorf("queue p99 = %d, want 40ms", q.P99Nanos)
	}
	if sub := byName["substrate"]; sub.TailShare > 0.10 {
		t.Errorf("substrate tail share = %.2f, want <0.10", sub.TailShare)
	}
	if coverage <= 0 || coverage >= 1 {
		t.Errorf("coverage = %.3f, want in (0,1): server total excludes the synthetic network overhead", coverage)
	}
}

// TestReduceStagesLedgerCloses checks the reconciliation invariant the
// acceptance gate relies on: with the server's synthetic "other" entry in
// the breakdown, per-stage means sum to the mean server total exactly, and
// server coverage accounts for client latency within the network gap.
func TestReduceStagesLedgerCloses(t *testing.T) {
	var samples []stagedSample
	for i := 1; i <= 20; i++ {
		samples = append(samples, sample(500*time.Microsecond, map[string]time.Duration{
			"decode":    10 * time.Microsecond,
			"queue":     time.Duration(i) * 50 * time.Microsecond,
			"substrate": time.Duration(i) * time.Millisecond,
			"other":     20 * time.Microsecond,
		}))
	}
	stages, _, coverage := reduceStages(samples)
	var sumMeans, sumTotals time.Duration
	for _, s := range stages {
		sumMeans += time.Duration(s.MeanNanos)
	}
	for _, s := range samples {
		sumTotals += s.total
	}
	meanTotal := sumTotals / time.Duration(len(samples))
	diff := sumMeans - meanTotal
	if diff < 0 {
		diff = -diff
	}
	// Integer division truncates per stage; the ledger must still close far
	// inside the 10% acceptance bound.
	if float64(diff) > 0.01*float64(meanTotal) {
		t.Errorf("stage means sum to %v, server mean total %v: ledger does not close", sumMeans, meanTotal)
	}
	var sumClient time.Duration
	for _, s := range samples {
		sumClient += s.client
	}
	wantCov := float64(sumTotals) / float64(sumClient)
	if diff := coverage - wantCov; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("coverage = %v, want %v", coverage, wantCov)
	}
}

func TestReduceStagesEmpty(t *testing.T) {
	stages, dominant, coverage := reduceStages(nil)
	if stages != nil || dominant != "" || coverage != 0 {
		t.Errorf("empty reduce = (%v, %q, %v)", stages, dominant, coverage)
	}
}

// TestAddTimedWiring drives the Collector the way replay does and checks
// breakdowns are kept for 2xx only, the total entry is lifted out of the
// stage map, and a header without a total is reconstructed as the stage sum.
func TestAddTimedWiring(t *testing.T) {
	var c Collector
	c.AddTimed(200, 3*time.Millisecond, 0, map[string]time.Duration{
		"queue": time.Millisecond, "substrate": time.Millisecond, "total": 2 * time.Millisecond,
	})
	c.AddTimed(200, 2*time.Millisecond, 0, map[string]time.Duration{
		// no total entry: must be reconstructed as 1.5ms
		"queue": 500 * time.Microsecond, "substrate": time.Millisecond,
	})
	c.AddTimed(429, time.Millisecond, 0, map[string]time.Duration{"queue": time.Millisecond, "total": time.Millisecond})
	c.AddTimed(500, time.Millisecond, 0, map[string]time.Duration{"queue": time.Millisecond, "total": time.Millisecond})
	c.AddTimed(200, time.Millisecond, 0, nil) // traced server absent: no sample

	r := c.Report("wiring", time.Second)
	if r.StagedRequests != 2 {
		t.Fatalf("staged requests = %d, want 2 (2xx with breakdowns only)", r.StagedRequests)
	}
	if len(c.staged) != 2 {
		t.Fatalf("stored samples = %d", len(c.staged))
	}
	if c.staged[0].total != 2*time.Millisecond {
		t.Errorf("sample 0 total = %v", c.staged[0].total)
	}
	if _, ok := c.staged[0].stages["total"]; ok {
		t.Error("total entry leaked into the stage map")
	}
	if c.staged[1].total != 1500*time.Microsecond {
		t.Errorf("reconstructed total = %v, want 1.5ms", c.staged[1].total)
	}
	if len(r.Stages) == 0 || r.ServerCoverage <= 0 {
		t.Errorf("report missing attribution: %+v", r)
	}
}

// TestArtifactStageRows checks the -json artifact keeps one attribution row
// per observed stage, in spine order, on the mix's full-precision report.
func TestArtifactStageRows(t *testing.T) {
	var c Collector
	for i := 0; i < 4; i++ {
		c.AddTimed(200, 2*time.Millisecond, 0, map[string]time.Duration{
			"queue": 100 * time.Microsecond, "substrate": time.Millisecond,
			"other": 50 * time.Microsecond, "total": 1150 * time.Microsecond,
		})
	}
	art := NewArtifact()
	art.Reports["mixA"] = c.Report("mixA", time.Second)
	blob, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ArtifactSchema || back.Go == "" || back.CPUs <= 0 {
		t.Errorf("provenance incomplete: %+v", back)
	}
	rep, ok := back.Reports["mixA"]
	if !ok || rep.TailDominant == "" {
		t.Fatalf("full report not retained: %+v", rep)
	}
	wantOrder := []string{"queue", "substrate", "other"}
	if len(rep.Stages) != len(wantOrder) {
		t.Fatalf("stage rows = %d, want 3 (queue, substrate, other): %+v", len(rep.Stages), rep.Stages)
	}
	for i, st := range rep.Stages {
		if st.Stage != wantOrder[i] {
			t.Errorf("row %d = %+v, want stage %s", i, st, wantOrder[i])
		}
	}
}
