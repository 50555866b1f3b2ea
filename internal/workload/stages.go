package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Server-side stage attribution. bpmaxd stamps every traced response with a
// Server-Timing header ("queue;dur=1.2, substrate;dur=8.4, ..., total;dur=12.0");
// the replayer parses it per request and reduces the samples to per-stage
// quantiles plus a tail-attribution summary ("p99 dominated by queue: 62%").
// Because the server emits a synthetic "other" entry (total minus the
// attributed stages), the per-request ledger closes by construction and the
// client can reconcile stage sums against end-to-end latency.

// ParseServerTiming parses a Server-Timing header value into stage
// durations. Entries are comma-separated "name;dur=millis"; parameters
// other than dur, and entries without a dur, are ignored. Returns nil when
// nothing parses, so untraced responses cost one map lookup and no
// allocation downstream.
func ParseServerTiming(h string) map[string]time.Duration {
	var out map[string]time.Duration
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			val, ok := strings.CutPrefix(p, "dur=")
			if !ok {
				continue
			}
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if out == nil {
				out = make(map[string]time.Duration)
			}
			out[name] = time.Duration(ms * float64(time.Millisecond))
			break
		}
	}
	return out
}

// stagedSample is one successful request's server-side breakdown paired
// with the client's observed latency.
type stagedSample struct {
	client time.Duration
	total  time.Duration // server-reported wall ("total" entry)
	stages map[string]time.Duration
}

// StageReport is one stage's latency distribution across a run, plus its
// share of the slow tail.
type StageReport struct {
	Stage string `json:"stage"`
	// Count is how many sampled requests reported this stage at all.
	Count int64 `json:"count"`
	// Quantiles and mean are over every sampled request, counting the
	// stage as zero where absent — so shares are comparable across stages.
	P50Nanos  int64 `json:"p50_nanos"`
	P95Nanos  int64 `json:"p95_nanos"`
	P99Nanos  int64 `json:"p99_nanos"`
	MeanNanos int64 `json:"mean_nanos"`
	// TailShare is the stage's fraction of server-side wall time summed
	// over the slowest requests (those at or above the p99 total): the
	// "what dominates p99" number.
	TailShare float64 `json:"tail_share"`
}

// stageRank orders stages the way a request flows through the spine, so
// reports read top-to-bottom as a timeline. Unknown stages sort after
// known ones, alphabetically.
var stageRank = map[string]int{
	"decode":            0,
	"queue":             1,
	"cache-hit":         2,
	"singleflight-wait": 3,
	"substrate":         4,
	"accumulate":        5,
	"finalize":          6,
	"triangle":          7,
	"traceback":         8,
	"encode":            9,
	"other":             10,
}

func stageLess(a, b string) bool {
	ra, oka := stageRank[a]
	rb, okb := stageRank[b]
	switch {
	case oka && okb:
		return ra < rb
	case oka:
		return true
	case okb:
		return false
	default:
		return a < b
	}
}

// reduceStages turns the run's samples into ordered per-stage reports, the
// dominant tail stage, and the server-coverage ratio (server total over
// client-observed latency; the gap is network plus response encode).
func reduceStages(samples []stagedSample) (stages []StageReport, tailDominant string, coverage float64) {
	if len(samples) == 0 {
		return nil, "", 0
	}
	names := map[string]bool{}
	var sumTotal, sumClient time.Duration
	totals := make([]time.Duration, len(samples))
	for i, s := range samples {
		for n := range s.stages {
			names[n] = true
		}
		totals[i] = s.total
		sumTotal += s.total
		sumClient += s.client
	}
	if sumClient > 0 {
		coverage = float64(sumTotal) / float64(sumClient)
	}
	// The tail set: every sample at or above the p99 total. With few
	// samples this degrades gracefully to "the slowest request".
	sortedTotals := append([]time.Duration(nil), totals...)
	sort.Slice(sortedTotals, func(i, j int) bool { return sortedTotals[i] < sortedTotals[j] })
	p99 := quantile(sortedTotals, 0.99)
	var tailTotal time.Duration
	tailStage := map[string]time.Duration{}
	for _, s := range samples {
		if s.total < p99 {
			continue
		}
		tailTotal += s.total
		for n, d := range s.stages {
			tailStage[n] += d
		}
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool { return stageLess(ordered[i], ordered[j]) })
	var maxShare float64
	for _, name := range ordered {
		vals := make([]time.Duration, len(samples))
		var sum time.Duration
		var count int64
		for i, s := range samples {
			d, ok := s.stages[name]
			if ok {
				count++
			}
			vals[i] = d
			sum += d
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		sr := StageReport{
			Stage:     name,
			Count:     count,
			P50Nanos:  int64(quantile(vals, 0.50)),
			P95Nanos:  int64(quantile(vals, 0.95)),
			P99Nanos:  int64(quantile(vals, 0.99)),
			MeanNanos: int64(sum / time.Duration(len(samples))),
		}
		if tailTotal > 0 {
			sr.TailShare = float64(tailStage[name]) / float64(tailTotal)
		}
		if sr.TailShare > maxShare {
			maxShare = sr.TailShare
			tailDominant = fmt.Sprintf("%s: %.0f%%", name, sr.TailShare*100)
		}
		stages = append(stages, sr)
	}
	return stages, tailDominant, coverage
}
