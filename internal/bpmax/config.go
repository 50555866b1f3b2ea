package bpmax

import (
	"context"
	"fmt"

	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// Variant selects one of the paper's BPMax execution schedules.
type Variant int

const (
	// VariantReference is the top-down memoized oracle (test/debug only;
	// asymptotically equal but constant-factor slow).
	VariantReference Variant = iota
	// VariantBase is the original BPMax program's schedule:
	// (j1-i1, j2-i2, i1, i2, k1, k2) with per-cell gather reductions,
	// single-threaded, no streaming. The 1× baseline of Figures 15/16.
	VariantBase
	// VariantCoarse parallelizes across the inner triangles of one outer
	// anti-diagonal; each triangle is computed sequentially (streaming
	// kernels, but every worker walks whole triangles: heavy DRAM traffic).
	VariantCoarse
	// VariantFine processes triangles one at a time and parallelizes the
	// R0/R3/R4 accumulation across rows of the current triangle; the
	// R1/R2+update pass runs on a single worker (the paper's fine-grain
	// weakness).
	VariantFine
	// VariantHybrid uses fine-grain row parallelism for R0/R3/R4 across
	// *all* triangles of the wavefront, then coarse-grain triangle
	// parallelism for the R1/R2+update pass — the paper's Phase III
	// schedule.
	VariantHybrid
	// VariantHybridTiled is VariantHybrid with the (i2 × k2 × j2) tiling of
	// the double max-plus, the paper's best performer.
	VariantHybridTiled
)

// String returns the label used in benchmark output.
func (v Variant) String() string {
	switch v {
	case VariantReference:
		return "reference"
	case VariantBase:
		return "base"
	case VariantCoarse:
		return "coarse"
	case VariantFine:
		return "fine"
	case VariantHybrid:
		return "hybrid"
	case VariantHybridTiled:
		return "hybrid-tiled"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists the production schedules in the order the paper's
// Figures 15/16 present them.
var Variants = []Variant{VariantBase, VariantCoarse, VariantFine, VariantHybrid, VariantHybridTiled}

// Config tunes a solve. The zero value is valid: GOMAXPROCS workers,
// paper-default tiles, bounding-box memory map. Every loop is scheduled
// dynamically (the paper's OMP-dynamic) and every accumulator shares F's
// storage (its Phase III map).
type Config struct {
	// Workers is the parallel width; <= 0 means GOMAXPROCS.
	Workers int
	// TileI2, TileK2, TileJ2 are the double max-plus tile sizes. Zero
	// selects 64 × 64 × N (j2 untiled, the streaming dimension): the paper's
	// generic shape with a deeper k2 band, which the register-resident sweep
	// wants (docs/PERFORMANCE.md, "Vector kernels"). TileI2 sets the row tile
	// of every hybrid-tiled fill; TileK2 and TileJ2 shape only the fills that
	// sweep R0 — not a box-map fill whose band spans N2, which takes R0 as
	// block products of a fixed shape on every kernel body.
	TileI2, TileK2, TileJ2 int
	// Map selects the inner-triangle memory map (Fig 10 ablation).
	Map MapKind

	// Engine is the worker team every parallel loop runs on. Sharing one
	// across folds and batch items amortizes goroutine launch cost and caps
	// total parallel width at the engine's size; a solve that asks for
	// Workers > 1 with none set starts one for its own duration
	// (ScopedEngine), and a width-1 solve needs none.
	Engine *Engine
	// Pool, when non-nil, recycles DP tables and solver state across folds
	// so steady-state solves are near zero-allocation. A pooled table is
	// re-zeroed on reuse except where the fill writes every cell before it
	// reads one (a streamed box-map fill whose band spans N2 takes it uncleared,
	// bufpool.GetUnzeroed), so results stay bit-identical to fresh-allocation
	// runs.
	Pool *Pool

	// Metrics, when non-nil, receives per-phase timings, wavefront counts
	// and schedule identity for this solve. It must be owned by this fold
	// alone: the coordinating goroutine writes it without synchronization.
	// Recording allocates nothing and costs two time.Now calls per phase
	// per wavefront.
	Metrics *metrics.FoldMetrics

	// triangleHook, when set, runs at the start of each triangle-level unit
	// of work in every schedule. Test-only fault injection seam: it lets the
	// robustness tests provoke a worker panic inside any variant without
	// poisoning real data. Unexported so only this package (and its tests)
	// can set it; external tests go through SetTriangleHook.
	triangleHook func(i1, j1 int)
	// kernels, when set, names the body of package maxplus a streaming fill —
	// max-plus or the scaled partition's sum-product — runs on in place of
	// the process's: the seam that makes the kernel body an input of the
	// parity fuzzers. See SetKernels.
	kernels string
}

// SetTriangleHook installs the fault-injection hook. It exists so the root
// package's robustness tests can provoke panics deep inside a schedule; do
// not set it outside tests.
func (c *Config) SetTriangleHook(h func(i1, j1 int)) { c.triangleHook = h }

// SetKernels selects the streaming-kernel body for this solve by name, one of
// maxplus.Impls: "go" for the portable loops, or a vector body narrower than
// the process's ("avx2" on a CPU with AVX-512); "" is the process's own. It
// applies to a max-plus fill and to a scaled partition fill (the log-sum-exp
// bundle has no vector bodies to replace). It is the differential axis
// "kernel body" of the parity tests; nothing that serves folds sets it.
func (c *Config) SetKernels(impl string) { c.kernels = impl }

// maxplusKernels returns the float32 kernel bundle a max-plus solve under
// this configuration streams through. Where the stream is a Go loop it is
// the 8-way unrolled one: it beat the plain loop on every portable run
// measured (docs/PERFORMANCE.md, "Paths retired because they lost").
func (c Config) maxplusKernels() semiring.Kernels[float32] {
	if c.kernels == "" {
		return semiring.MaxPlusKernels(true)
	}
	return semiring.MaxPlusKernelsOf(c.kernels)
}

// sumProductKernels returns the float64 kernel bundle a scaled partition
// solve under this configuration streams through.
func (c Config) sumProductKernels() semiring.Kernels[float64] {
	if c.kernels == "" {
		return semiring.SumProductKernels()
	}
	return semiring.SumProductKernelsOf(c.kernels)
}

// defaultTileI2 is the row tile of every fold that sets none; Charge prices
// the masked fill's tile bit-sets under it.
const defaultTileI2 = 64

// withDefaults resolves zero fields to the default tile shape.
func (c Config) withDefaults() Config {
	if c.TileI2 <= 0 {
		c.TileI2 = defaultTileI2
	}
	if c.TileK2 <= 0 {
		c.TileK2 = 64
	}
	// TileJ2 == 0 means "untiled j2" and is itself the default.
	return c
}

// pfor returns the uncancellable parallel-for over the configured Engine.
// Every loop runs on the Engine — with none configured (a width-1 solve, or
// a caller that skipped ScopedEngine) on the submitting goroutine alone.
func (c Config) pfor() func(n, workers int, f func(int)) {
	e := c.Engine
	return func(n, workers int, f func(int)) {
		if err := e.Run(context.Background(), n, workers, f); err != nil {
			panic(err)
		}
	}
}

// ScopedEngine binds c to a parallel runtime for the length of one call: c
// itself when it already carries an Engine or width resolves to 1 (its
// loops then run on the submitter, no goroutine needed), otherwise c on a
// fresh engine of that width, which release closes. Call it where a solve
// first needs a runtime and defer release; every loop of the call — substrate
// build, fill, a guard refill — then shares that one team.
func (c Config) ScopedEngine(width int) (scoped Config, release func()) {
	if c.Engine != nil || resolveWorkers(width) == 1 {
		return c, func() {}
	}
	c.Engine = NewEngine(width)
	return c, c.Engine.Close
}

// ParallelFor binds the configured runtime and width into the plain loop
// nussinov's FillContext takes, so a substrate build of an n-position table
// runs under the same Engine cap, failpoints and panic recovery as the
// interaction fill. It returns nil — the inline fill — at width 1 and for a
// table FillContext would not tile anyway: the binding is a closure, and a
// steady-state pooled fold of short strands must not allocate one.
func (c Config) ParallelFor(n int) nussinov.ParallelFor {
	w := resolveWorkers(c.Workers)
	if w == 1 || !nussinov.Tiled(n) {
		return nil
	}
	e := c.Engine
	return func(ctx context.Context, n int, f func(int)) error { return e.Run(ctx, n, w, f) }
}
