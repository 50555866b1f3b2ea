package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// roundRates turns round wall times into ops per second, in run order.
func roundRates(roundOps int, walls []time.Duration) []float64 {
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(roundOps) / w.Seconds()
	}
	return rates
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 80, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that still has
// at least ten of n samples beyond it, so the reported tail is never set by
// a handful of outliers.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) returns (the exclusive method) — the
// statistic the driver accepts or rejects the benchmark on.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
