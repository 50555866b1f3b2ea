// Package roofline implements the paper's performance model (Section V-A):
// machine descriptors, the max-plus roofline (Fig 11), and the
// Y = max(a+X, Y) streaming micro-benchmark (Algorithm 3 / Fig 12).
package roofline

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/bpmax-go/bpmax/internal/maxplus"
)

// Machine describes a CPU for roofline purposes.
type Machine struct {
	Name string
	// Cores is the number of physical cores.
	Cores int
	// GHz is the sustained clock.
	GHz float64
	// SIMDLanes is the number of float32 lanes per vector op (8 for AVX2).
	SIMDLanes int
	// Per-core sustained cache bandwidths in bytes/cycle, and shared DRAM
	// bandwidth in GB/s (the paper's Intel microarchitecture numbers).
	L1BytesPerCycle, L2BytesPerCycle, L3BytesPerCycle float64
	DRAMGBs                                           float64
}

// E51650v4 is the paper's primary testbed: 6 cores, 32 KB L1 / 256 KB L2
// per core, 15 MB shared L3.
func E51650v4() Machine {
	return Machine{
		Name: "Xeon E5-1650v4", Cores: 6, GHz: 3.6, SIMDLanes: 8,
		L1BytesPerCycle: 93, L2BytesPerCycle: 25, L3BytesPerCycle: 14,
		DRAMGBs: 76.8,
	}
}

// E2278G is the paper's secondary machine: 8 cores at nearly the same
// clock.
func E2278G() Machine {
	return Machine{
		Name: "Xeon E-2278G", Cores: 8, GHz: 3.5, SIMDLanes: 8,
		L1BytesPerCycle: 93, L2BytesPerCycle: 25, L3BytesPerCycle: 14,
		DRAMGBs: 85.0,
	}
}

// Host builds a descriptor for the current machine. Only the core count is
// known without hardware counters; clock and bandwidths default to the
// paper's per-core numbers so the *model* stays comparable, and the
// measured micro-benchmark (MeasureStream) supplies the empirical side.
func Host() Machine {
	m := E51650v4()
	m.Name = "host"
	m.Cores = runtime.GOMAXPROCS(0)
	return m
}

// MaxPlusPeakGFLOPS returns the theoretical machine peak for max-plus
// arithmetic: cores × clock × lanes × 2 ops (one add + one max per lane
// per cycle). For the E5-1650v4 this is the paper's ≈346 GFLOPS.
func (m Machine) MaxPlusPeakGFLOPS() float64 {
	return float64(m.Cores) * m.GHz * float64(m.SIMDLanes) * 2
}

// BandwidthGBs returns the aggregate bandwidth of a memory level in GB/s.
func (m Machine) BandwidthGBs(level string) float64 {
	perCore := func(bpc float64) float64 { return bpc * m.GHz * float64(m.Cores) }
	switch level {
	case "L1":
		return perCore(m.L1BytesPerCycle)
	case "L2":
		return perCore(m.L2BytesPerCycle)
	case "L3":
		return perCore(m.L3BytesPerCycle)
	case "DRAM":
		return m.DRAMGBs
	}
	panic(fmt.Sprintf("roofline: unknown memory level %q", level))
}

// Levels lists the roofline memory levels from fastest to slowest.
var Levels = []string{"L1", "L2", "L3", "DRAM"}

// Attainable returns the roofline bound min(peak, AI × BW(level)) in
// GFLOPS for a kernel of the given arithmetic intensity (FLOP/byte).
func (m Machine) Attainable(level string, intensity float64) float64 {
	return math.Min(m.MaxPlusPeakGFLOPS(), intensity*m.BandwidthGBs(level))
}

// StreamIntensity is the arithmetic intensity of Y = max(a+X, Y):
// 2 FLOPs per 3 single-precision memory operations = 1/6 FLOP/byte.
const StreamIntensity = 2.0 / 12.0

// StreamResult is one micro-benchmark measurement.
type StreamResult struct {
	Threads   int
	ChunkKB   int
	GFLOPS    float64
	Elapsed   time.Duration
	TotalOps  int64
	PerThread int64
}

// MeasureStream runs Algorithm 3: each of threads workers owns two
// chunkFloats-long float32 arrays and applies Y = max(a+X, Y) for iters
// passes. Returns the aggregate max-plus GFLOPS. unroll selects the 8-way
// unrolled kernel.
func MeasureStream(threads, chunkFloats, iters int, unroll bool) StreamResult {
	if threads < 1 {
		threads = 1
	}
	if chunkFloats < 8 {
		chunkFloats = 8
	}
	if iters < 1 {
		iters = 1
	}
	kernel := maxplus.Accumulate
	if unroll {
		kernel = maxplus.Accumulate8
	}
	xs := make([][]float32, threads)
	ys := make([][]float32, threads)
	for t := 0; t < threads; t++ {
		xs[t] = make([]float32, chunkFloats)
		ys[t] = make([]float32, chunkFloats)
		for i := range xs[t] {
			xs[t][i] = float32(i%97) * 0.5
			ys[t][i] = float32(i%89) * 0.25
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(x, y []float32) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				kernel(y, x, float32(it%7))
			}
		}(xs[t], ys[t])
	}
	wg.Wait()
	elapsed := time.Since(start)
	perThread := int64(chunkFloats) * int64(iters) * maxplus.FlopsPerElement
	total := perThread * int64(threads)
	gflops := 0.0
	if elapsed > 0 {
		gflops = float64(total) / elapsed.Seconds() / 1e9
	}
	return StreamResult{
		Threads: threads, ChunkKB: chunkFloats * 4 / 1024,
		GFLOPS: gflops, Elapsed: elapsed,
		TotalOps: total, PerThread: perThread,
	}
}

// CalibrateIters picks an iteration count that makes one MeasureStream run
// take roughly targetMs milliseconds at the given chunk size.
func CalibrateIters(chunkFloats, targetMs int) int {
	probe := MeasureStream(1, chunkFloats, 64, false)
	if probe.Elapsed <= 0 {
		return 64
	}
	perIter := probe.Elapsed / 64
	if perIter <= 0 {
		perIter = time.Microsecond
	}
	iters := int(time.Duration(targetMs) * time.Millisecond / perIter)
	if iters < 1 {
		iters = 1
	}
	return iters
}
