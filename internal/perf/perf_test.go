package perf

import (
	"testing"
	"time"
)

func TestMeasurementGFLOPS(t *testing.T) {
	m := Measurement{Elapsed: time.Second, Flops: 2e9}
	if g := m.GFLOPS(); g != 2 {
		t.Errorf("GFLOPS = %v", g)
	}
	if (Measurement{Elapsed: 0, Flops: 1}).GFLOPS() != 0 {
		t.Error("zero elapsed should give 0 GFLOPS")
	}
}

func TestTimeAndBest(t *testing.T) {
	calls := 0
	m := Best(5, 100, func() { calls++ })
	if calls != 5 {
		t.Errorf("Best ran %d times", calls)
	}
	if m.Flops != 100 || m.Elapsed < 0 {
		t.Errorf("measurement = %+v", m)
	}
	Best(0, 1, func() { calls++ })
	if calls != 6 {
		t.Error("Best with repeats<1 should run once")
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, time.Second); s != 10 {
		t.Errorf("Speedup = %v", s)
	}
	if Speedup(time.Second, 0) != 0 {
		t.Error("zero denominator should give 0")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Pearson(x, []float64{2, 4, 6, 8}); got < 0.999 {
		t.Errorf("perfect correlation = %v", got)
	}
	if got := Pearson(x, []float64{8, 6, 4, 2}); got > -0.999 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if Pearson(x, []float64{5, 5, 5, 5}) != 0 {
		t.Error("constant sample should give 0")
	}
	if Pearson(x, []float64{1, 2}) != 0 {
		t.Error("length mismatch should give 0")
	}
	if Pearson(nil, nil) != 0 {
		t.Error("empty should give 0")
	}
}

func TestSpearman(t *testing.T) {
	// Monotone nonlinear relation: Spearman 1, Pearson < 1.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	if got := Spearman(x, y); got < 0.999 {
		t.Errorf("monotone Spearman = %v", got)
	}
	if got := Pearson(x, y); got >= 0.999 {
		t.Errorf("nonlinear Pearson = %v should be < 1", got)
	}
	if got := Spearman(x, []float64{9, 7, 5, 3, 1}); got > -0.999 {
		t.Errorf("reversed Spearman = %v", got)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2500 * time.Millisecond: "2.50s",
		3500 * time.Microsecond: "3.50ms",
		250 * time.Microsecond:  "250µs",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}
