package workload

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Collector accumulates per-request outcomes from any number of replay
// goroutines and reduces them to a Report. Latency quantiles are computed
// over successful (2xx) responses — shed and failed requests return fast
// and would flatter the tail.
type Collector struct {
	mu      sync.Mutex
	okLat   []time.Duration
	staged  []stagedSample
	total   int64
	ok      int64
	shed    int64
	client  int64
	server  int64
	netErrs int64
	late    time.Duration
}

// Add records one completed request: its HTTP status (0 for a transport
// error), its observed latency, and how far behind schedule it fired
// (open-loop lag; 0 when on time).
func (c *Collector) Add(status int, latency, lag time.Duration) {
	c.AddTimed(status, latency, lag, nil)
}

// AddTimed is Add plus the server-side stage breakdown parsed from the
// response's Server-Timing header (nil when the response carried none).
// Breakdowns are kept for successful responses only — like the latency
// quantiles, attribution is over requests that did the work.
func (c *Collector) AddTimed(status int, latency, lag time.Duration, stages map[string]time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if lag > c.late {
		c.late = lag
	}
	switch {
	case status >= 200 && status < 300:
		c.ok++
		c.okLat = append(c.okLat, latency)
		if len(stages) > 0 {
			s := stagedSample{client: latency, total: stages["total"], stages: make(map[string]time.Duration, len(stages))}
			for n, d := range stages {
				if n != "total" {
					s.stages[n] = d
				}
			}
			if s.total == 0 {
				// A header without the total entry: reconstruct it so shares
				// still have a denominator.
				for _, d := range s.stages {
					s.total += d
				}
			}
			c.staged = append(c.staged, s)
		}
	case status == 429:
		c.shed++
	case status == 0:
		c.netErrs++
	case status >= 500:
		c.server++
	default:
		c.client++
	}
}

// Report is the reduced view of one replay run.
type Report struct {
	Label string `json:"label"`

	Total      int64 `json:"total"`
	OK         int64 `json:"ok"`
	Shed       int64 `json:"shed"`
	ClientErrs int64 `json:"client_errors"`
	ServerErrs int64 `json:"server_errors"`
	NetErrs    int64 `json:"transport_errors"`

	// WallNanos is the replay's wall time; Throughput the completed 2xx
	// responses per second of it.
	WallNanos  int64   `json:"wall_nanos"`
	Throughput float64 `json:"throughput_rps"`
	// ShedRate is Shed/Total (0 when Total is 0).
	ShedRate float64 `json:"shed_rate"`

	// Latency quantiles over 2xx responses, in nanoseconds.
	P50Nanos  int64 `json:"p50_nanos"`
	P95Nanos  int64 `json:"p95_nanos"`
	P99Nanos  int64 `json:"p99_nanos"`
	MeanNanos int64 `json:"mean_nanos"`
	MaxNanos  int64 `json:"max_nanos"`

	// MaxLagNanos is the worst open-loop scheduling lag: how far behind
	// its trace timestamp the slowest request fired. Large values mean
	// the client, not the server, was the bottleneck.
	MaxLagNanos int64 `json:"max_lag_nanos"`

	// CacheHitRate is the server-side substrate+result hit fraction
	// fetched from /metrics after the run (-1 when unavailable).
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Stages is the server-side per-stage latency breakdown reduced from
	// Server-Timing headers, in spine order; empty when the server ran
	// untraced.
	Stages []StageReport `json:"stages,omitempty"`
	// TailDominant names the stage with the largest share of the slow
	// tail, e.g. "queue: 62%".
	TailDominant string `json:"tail_dominant,omitempty"`
	// ServerCoverage is the ratio of server-reported wall time to
	// client-observed latency over the sampled requests; the gap (1 minus
	// this) is network transfer plus response encode.
	ServerCoverage float64 `json:"server_coverage,omitempty"`
	// StagedRequests counts the successful responses that carried a
	// Server-Timing breakdown.
	StagedRequests int64 `json:"staged_requests,omitempty"`
}

// Report reduces the collected samples. wall is the replay's wall time.
func (c *Collector) Report(label string, wall time.Duration) Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Label:        label,
		Total:        c.total,
		OK:           c.ok,
		Shed:         c.shed,
		ClientErrs:   c.client,
		ServerErrs:   c.server,
		NetErrs:      c.netErrs,
		WallNanos:    int64(wall),
		MaxLagNanos:  int64(c.late),
		CacheHitRate: -1,
	}
	if wall > 0 {
		r.Throughput = float64(c.ok) / wall.Seconds()
	}
	if c.total > 0 {
		r.ShedRate = float64(c.shed) / float64(c.total)
	}
	if len(c.okLat) > 0 {
		lat := append([]time.Duration(nil), c.okLat...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		r.P50Nanos = int64(quantile(lat, 0.50))
		r.P95Nanos = int64(quantile(lat, 0.95))
		r.P99Nanos = int64(quantile(lat, 0.99))
		r.MeanNanos = int64(sum / time.Duration(len(lat)))
		r.MaxNanos = int64(lat[len(lat)-1])
	}
	r.Stages, r.TailDominant, r.ServerCoverage = reduceStages(c.staged)
	r.StagedRequests = int64(len(c.staged))
	return r
}

// quantile returns the q-quantile of sorted by the nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Artifact is the replay run's machine-readable document: provenance plus
// the full-precision report of every mix, keyed by its label. It is what
// bpmaxload -json writes and CI uploads; nothing gates on it — the served
// path's regression gate is the repository benchmark's `serve` workload.
type Artifact struct {
	Schema  string            `json:"schema"`
	Go      string            `json:"go"`
	GOOS    string            `json:"goos"`
	GOARCH  string            `json:"goarch"`
	CPUs    int               `json:"cpus"`
	Kind    string            `json:"kind"`
	Reports map[string]Report `json:"reports,omitempty"`
}

// ArtifactSchema versions the -json document.
const ArtifactSchema = "bpmax-serving/v1"

// NewArtifact returns an artifact shell with provenance filled, ready for
// reports.
func NewArtifact() *Artifact {
	return &Artifact{
		Schema:  ArtifactSchema,
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Kind:    "serving-replay",
		Reports: map[string]Report{},
	}
}
