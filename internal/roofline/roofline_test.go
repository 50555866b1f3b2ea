package roofline

import (
	"math"
	"testing"
)

func TestE5PeakMatchesPaper(t *testing.T) {
	// The paper: "theoretical max-plus machine peak is about 346 GFLOPS".
	peak := E51650v4().MaxPlusPeakGFLOPS()
	if math.Abs(peak-345.6) > 0.1 {
		t.Errorf("E5-1650v4 peak = %v, want ≈345.6", peak)
	}
}

func TestStreamIntensity(t *testing.T) {
	// 2 FLOPs per 3 × 4-byte accesses = 1/6.
	if math.Abs(StreamIntensity-1.0/6.0) > 1e-12 {
		t.Errorf("StreamIntensity = %v", StreamIntensity)
	}
}

func TestL1BoundMatchesPaper(t *testing.T) {
	// The paper: "we expect to achieve around 329 GFLOPS based on L1
	// bandwidth" at AI = 1/6.
	m := E51650v4()
	got := m.Attainable("L1", StreamIntensity)
	if math.Abs(got-334.8) > 10 { // 93 B/c × 3.6 GHz × 6 cores / 6
		t.Errorf("L1 bound at 1/6 = %v, want ≈335 (paper reports ≈329)", got)
	}
	if got >= m.MaxPlusPeakGFLOPS() {
		t.Error("L1-bound stream should sit below compute peak")
	}
}

func TestBandwidthOrdering(t *testing.T) {
	m := E51650v4()
	if !(m.BandwidthGBs("L1") > m.BandwidthGBs("L2") &&
		m.BandwidthGBs("L2") > m.BandwidthGBs("L3") &&
		m.BandwidthGBs("L3") > m.BandwidthGBs("DRAM")) {
		t.Error("memory hierarchy bandwidths not strictly decreasing")
	}
}

func TestAttainableClampsAtPeak(t *testing.T) {
	m := E51650v4()
	if got := m.Attainable("L1", 1000); got != m.MaxPlusPeakGFLOPS() {
		t.Errorf("high-AI attainable = %v, want peak", got)
	}
	if got := m.Attainable("DRAM", 0.001); got >= 1 {
		t.Errorf("low-AI DRAM attainable = %v, should be tiny", got)
	}
}

func TestUnknownLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown level did not panic")
		}
	}()
	E51650v4().BandwidthGBs("L9")
}

func TestSeriesShape(t *testing.T) {
	// The roofline curve over a log-spaced intensity range (the shape of
	// Fig 11): rising with intensity, never falling, flat at the peak.
	m := E51650v4()
	prev := 0.0
	for ai := 0.01; ai <= 100; ai *= 1.85 {
		g := m.Attainable("DRAM", ai)
		if g < prev {
			t.Fatalf("roofline not monotone at intensity %v: %v < %v", ai, g, prev)
		}
		prev = g
	}
	if prev != m.MaxPlusPeakGFLOPS() {
		t.Errorf("roofline should saturate at peak, got %v", prev)
	}
}

func TestHostAndE2278G(t *testing.T) {
	h := Host()
	if h.Cores < 1 || h.Name != "host" {
		t.Errorf("host descriptor = %+v", h)
	}
	e := E2278G()
	if e.Cores != 8 {
		t.Errorf("E-2278G cores = %d", e.Cores)
	}
	// The paper: optimized BPMax performs the same or better on E-2278G.
	if e.MaxPlusPeakGFLOPS() <= E51650v4().MaxPlusPeakGFLOPS() {
		t.Error("E-2278G peak should exceed E5-1650v4 (more cores)")
	}
}

func TestMeasureStreamBasics(t *testing.T) {
	r := MeasureStream(2, 4096, 200, false)
	if r.GFLOPS <= 0 {
		t.Errorf("GFLOPS = %v", r.GFLOPS)
	}
	if r.TotalOps != int64(2)*4096*200*2 {
		t.Errorf("TotalOps = %d", r.TotalOps)
	}
	if r.ChunkKB != 16 {
		t.Errorf("ChunkKB = %d", r.ChunkKB)
	}
	// Degenerate arguments are clamped, not rejected.
	r2 := MeasureStream(0, 0, 0, true)
	if r2.Threads != 1 || r2.GFLOPS <= 0 {
		t.Errorf("clamped run = %+v", r2)
	}
}

func TestCalibrateIters(t *testing.T) {
	iters := CalibrateIters(4096, 5)
	if iters < 1 {
		t.Errorf("iters = %d", iters)
	}
}
