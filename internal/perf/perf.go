// Package perf provides the measurement utilities shared by the benchmark
// harness: repeated timing with robust statistics and FLOP-rate
// conversion.
package perf

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Measurement is one timed run.
type Measurement struct {
	Elapsed time.Duration
	Flops   int64
}

// GFLOPS converts the measurement to 10⁹ FLOP/s.
func (m Measurement) GFLOPS() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Flops) / m.Elapsed.Seconds() / 1e9
}

// Time runs f once and returns the measurement with the given analytic
// FLOP count attached.
func Time(flops int64, f func()) Measurement {
	start := time.Now()
	f()
	return Measurement{Elapsed: time.Since(start), Flops: flops}
}

// Best runs f repeats times (at least once) and returns the fastest run —
// the conventional reporting choice for throughput kernels, minimizing
// scheduler noise.
func Best(repeats int, flops int64, f func()) Measurement {
	if repeats < 1 {
		repeats = 1
	}
	best := Time(flops, f)
	for i := 1; i < repeats; i++ {
		if m := Time(flops, f); m.Elapsed < best.Elapsed {
			best = m
		}
	}
	return best
}

// Speedup returns base/opt as a ratio (how many times faster opt is).
func Speedup(base, opt time.Duration) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

// Pearson returns the linear correlation of two equal-length samples (0
// when either sample is constant or the lengths differ).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the rank correlation (Pearson over ranks; ties get
// their insertion-order ranks, adequate for continuous-valued samples).
func Spearman(x, y []float64) float64 {
	return Pearson(ranks(x), ranks(y))
}

func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, len(x))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}

// FormatDuration renders a duration compactly for table output.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
