package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPoissonMeanGap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Poisson{Rate: 100} // mean gap 10ms
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.Next(rng)
	}
	mean := sum / n
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("poisson mean gap = %v, want ~10ms", mean)
	}
}

func TestBurstyClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := &Bursty{Rate: 1000, OnMean: 100 * time.Millisecond, OffMean: 900 * time.Millisecond}
	var sum time.Duration
	const n = 20000
	short := 0
	for i := 0; i < n; i++ {
		gap := b.Next(rng)
		sum += gap
		if gap < 3*time.Millisecond {
			short++
		}
	}
	// Long-run intensity is 1000 * 0.1 = 100/s → mean gap ~10ms, but most
	// gaps are in-burst (~1ms): the clustering signature.
	mean := sum / n
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Errorf("bursty mean gap = %v, want ~10ms", mean)
	}
	if frac := float64(short) / n; frac < 0.85 {
		t.Errorf("only %.0f%% of gaps are in-burst; arrivals are not clustered", frac*100)
	}
}

func TestHeavyTailBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := HeavyTailLen{Alpha: 1.3, Min: 16, Max: 512}
	sawTail := false
	for i := 0; i < 20000; i++ {
		n := h.Next(rng)
		if n < 16 || n > 512 {
			t.Fatalf("length %d out of [16,512]", n)
		}
		if n > 256 {
			sawTail = true
		}
	}
	if !sawTail {
		t.Error("bounded Pareto never reached its tail")
	}
}

func TestMixLenWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := MixLen{
		{Weight: 0.9, Dist: UniformLen{Min: 10, Max: 10}},
		{Weight: 0.1, Dist: UniformLen{Min: 100, Max: 100}},
	}
	long := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if m.Next(rng) == 100 {
			long++
		}
	}
	if frac := float64(long) / n; frac < 0.05 || frac > 0.18 {
		t.Errorf("long fraction = %.3f, want ~0.10", frac)
	}
}

func TestNamedConstructors(t *testing.T) {
	if _, err := NamedArrival("poisson", 10); err != nil {
		t.Error(err)
	}
	if _, err := NamedArrival("bursty", 10); err != nil {
		t.Error(err)
	}
	if _, err := NamedArrival("warp", 10); err == nil {
		t.Error("unknown arrival accepted")
	}
	for _, mix := range []string{"uniform", "heavytail", "screen"} {
		if _, err := NamedLengths(mix, 8, 64); err != nil {
			t.Errorf("%s: %v", mix, err)
		}
	}
	if _, err := NamedLengths("flat", 8, 64); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := SynthConfig{
		Arrival:   Poisson{Rate: 50},
		Lengths:   UniformLen{Min: 8, Max: 32},
		Count:     50,
		Seed:      7,
		Pool:      4,
		ScanEvery: 10,
		Window:    8,
		TimeoutMs: 500,
	}
	a, b := Synthesize(cfg), Synthesize(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different traces")
	}
	if len(a) != 50 {
		t.Fatalf("got %d requests, want 50", len(a))
	}
	scans, pooled := 0, map[string]bool{}
	last := -1.0
	for i, rq := range a {
		if err := rq.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if rq.AtMs < last {
			t.Fatalf("timestamps not monotone at %d", i)
		}
		last = rq.AtMs
		if rq.Op == OpScan {
			scans++
			if rq.W1 != 8 || rq.W2 != 8 {
				t.Errorf("scan windows = %d,%d, want 8,8", rq.W1, rq.W2)
			}
		}
		pooled[rq.Seq1] = true
		if rq.TimeoutMs != 500 {
			t.Errorf("timeout not stamped on request %d", i)
		}
	}
	if scans != 5 {
		t.Errorf("got %d scans, want 5", scans)
	}
	if len(pooled) > 4 {
		t.Errorf("pool of 4 produced %d distinct strands", len(pooled))
	}
}

func TestTraceRoundTrip(t *testing.T) {
	reqs := Synthesize(SynthConfig{
		Arrival: Poisson{Rate: 100},
		Lengths: UniformLen{Min: 4, Max: 16},
		Count:   20, Seed: 9,
	})
	var buf bytes.Buffer
	buf.WriteString("# provenance comment\n\n")
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Error("trace did not round-trip")
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":   "{not json}\n",
		"unknown op": `{"at_ms":0,"op":"warp","seq1":"A","seq2":"C"}` + "\n",
		"no seq":     `{"at_ms":0,"seq1":"","seq2":"C"}` + "\n",
		"neg time":   `{"at_ms":-1,"seq1":"A","seq2":"C"}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %v lacks line number", name, err)
		}
	}
}

func TestCollectorReport(t *testing.T) {
	var c Collector
	for i := 1; i <= 100; i++ {
		c.Add(200, time.Duration(i)*time.Millisecond, 0)
	}
	for i := 0; i < 20; i++ {
		c.Add(429, time.Millisecond, 0)
	}
	c.Add(400, time.Millisecond, 0)
	c.Add(503, time.Millisecond, 0)
	c.Add(0, time.Millisecond, 5*time.Second)
	r := c.Report("test", 10*time.Second)
	if r.Total != 123 || r.OK != 100 || r.Shed != 20 || r.ClientErrs != 1 || r.ServerErrs != 1 || r.NetErrs != 1 {
		t.Errorf("counts wrong: %+v", r)
	}
	if r.P50Nanos != int64(50*time.Millisecond) {
		t.Errorf("p50 = %v, want 50ms", time.Duration(r.P50Nanos))
	}
	if r.P99Nanos != int64(99*time.Millisecond) {
		t.Errorf("p99 = %v, want 99ms", time.Duration(r.P99Nanos))
	}
	if r.MaxNanos != int64(100*time.Millisecond) {
		t.Errorf("max = %v, want 100ms", time.Duration(r.MaxNanos))
	}
	if r.Throughput != 10.0 {
		t.Errorf("throughput = %g, want 10 rps", r.Throughput)
	}
	if want := 20.0 / 123; r.ShedRate < want-1e-9 || r.ShedRate > want+1e-9 {
		t.Errorf("shed rate = %g, want %g", r.ShedRate, want)
	}
	if r.MaxLagNanos != int64(5*time.Second) {
		t.Errorf("max lag = %v, want 5s", time.Duration(r.MaxLagNanos))
	}
}
