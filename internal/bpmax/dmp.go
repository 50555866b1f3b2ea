package bpmax

import (
	"fmt"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/tri"
)

// The standalone double max-plus system (Equation 4) — the Θ(N1³N2³)
// micro-app the paper's Phase I and the Table I / Figures 13, 14, 18
// experiments isolate (following Varadarajan's surrogate mini-app, which
// mimicked the dependence pattern of the dominant reduction):
//
//	G[i1,j1,i2,j2] = max( seed(i1,j1,i2,j2),
//	                      max_{k1,k2} G[i1,k1,i2,k2] + G[k1+1,j1,k2+1,j2] )
//
// with seed = max(0, iscore(i1,i2)) on singleton×singleton cells and 0
// elsewhere. Exactly the R0 dependence pattern of BPMax, nothing else.

// DMPVariant selects a schedule for the double max-plus system, matching
// the series of Figures 13/14.
type DMPVariant int

const (
	// DMPReference is the top-down memoized oracle.
	DMPReference DMPVariant = iota
	// DMPBase uses the original schedule: per-cell k2-innermost gather.
	DMPBase
	// DMPCoarse parallelizes over the triangles of each wavefront.
	DMPCoarse
	// DMPFineDiag processes triangles one at a time in diagonal order with
	// row-parallel accumulation.
	DMPFineDiag
	// DMPFineBottomUp is DMPFineDiag with bottom-up/left-to-right triangle
	// order (the paper's orange-vs-blue comparison).
	DMPFineBottomUp
	// DMPTiled adds the (i2 × k2 × j2) tiling; the paper's best.
	DMPTiled
)

// String returns the benchmark label.
func (v DMPVariant) String() string {
	switch v {
	case DMPReference:
		return "reference"
	case DMPBase:
		return "base"
	case DMPCoarse:
		return "coarse"
	case DMPFineDiag:
		return "fine-diag"
	case DMPFineBottomUp:
		return "fine-bottomup"
	case DMPTiled:
		return "tiled"
	}
	return fmt.Sprintf("DMPVariant(%d)", int(v))
}

// DMPVariants lists the production schedules in Figure 13/14 order.
var DMPVariants = []DMPVariant{DMPBase, DMPCoarse, DMPFineDiag, DMPFineBottomUp, DMPTiled}

// SolveDMP fills the double max-plus table for p under the given variant.
func SolveDMP(p *Problem, v DMPVariant, cfg Config) *FTable {
	switch v {
	case DMPReference:
		return solveDMPReference(p, cfg.Map)
	case DMPBase:
		return solveDMPBase(p, cfg)
	case DMPCoarse, DMPFineDiag, DMPFineBottomUp, DMPTiled:
		return solveDMPScheduled(p, v, cfg)
	}
	panic(fmt.Sprintf("bpmax: unknown DMP variant %d", int(v)))
}

// solveDMPReference is the memoized top-down oracle for Equation 4.
func solveDMPReference(p *Problem, kind MapKind) *FTable {
	n1, n2 := p.N1, p.N2
	memo := make([]float32, tri.Count(n1)*tri.Count(n2))
	known := make([]bool, len(memo))
	idx := func(i1, j1, i2, j2 int) int {
		return tri.Index(i1, j1, n1)*tri.Count(n2) + tri.Index(i2, j2, n2)
	}
	var g func(i1, j1, i2, j2 int) float32
	g = func(i1, j1, i2, j2 int) float32 {
		id := idx(i1, j1, i2, j2)
		if known[id] {
			return memo[id]
		}
		var v float32
		if i1 == j1 && i2 == j2 {
			v = p.singleton(i1, i2)
		} else {
			for k1 := i1; k1 < j1; k1++ {
				for k2 := i2; k2 < j2; k2++ {
					if w := g(i1, k1, i2, k2) + g(k1+1, j1, k2+1, j2); w > v {
						v = w
					}
				}
			}
		}
		memo[id] = v
		known[id] = true
		return v
	}
	f := NewFTable(n1, n2, kind)
	for i1 := 0; i1 < n1; i1++ {
		for j1 := i1; j1 < n1; j1++ {
			for i2 := 0; i2 < n2; i2++ {
				for j2 := i2; j2 < n2; j2++ {
					f.Set(i1, j1, i2, j2, g(i1, j1, i2, j2))
				}
			}
		}
	}
	return f
}

// solveDMPBase is the per-cell gather schedule.
func solveDMPBase(p *Problem, cfg Config) *FTable {
	f := NewFTable(p.N1, p.N2, cfg.Map)
	n1, n2 := p.N1, p.N2
	for d1 := 0; d1 < n1; d1++ {
		for d2 := 0; d2 < n2; d2++ {
			for i1 := 0; i1+d1 < n1; i1++ {
				j1 := i1 + d1
				blk := f.Block(i1, j1)
				for i2 := 0; i2+d2 < n2; i2++ {
					j2 := i2 + d2
					var v float32
					if d1 == 0 && d2 == 0 {
						v = p.singleton(i1, i2)
					} else {
						for k1 := i1; k1 < j1; k1++ {
							ablk := f.Block(i1, k1)
							bblk := f.Block(k1+1, j1)
							for k2 := i2; k2 < j2; k2++ {
								if w := ablk[f.Inner.At(i2, k2)] + bblk[f.Inner.At(k2+1, j2)]; w > v {
									v = w
								}
							}
						}
					}
					blk[f.Inner.At(i2, j2)] = v
				}
			}
		}
	}
	return f
}

// dmpSeedTriangle initializes triangle (i1, j1): all cells 0, and the
// singleton seeds on the diagonal when the triangle itself is a singleton
// interval. Blocks start zeroed, so only the seeds need writing.
func (s *gsolver[T]) dmpSeedTriangle(i1, j1 int) {
	if i1 != j1 {
		return
	}
	blk := s.f.Block(i1, j1)
	for i2 := 0; i2 < s.p.N2; i2++ {
		blk[s.f.Inner.At(i2, i2)] = s.a.singleton(i1, i2)
	}
}

// dmpAccumulateRow applies the R0 streams of one k1 to row i2 of the
// accumulator (no R3/R4 here: the standalone system has only Equation 4).
func (s *gsolver[T]) dmpAccumulateRow(blk, ablk, bblk []T, i2 int) {
	n2 := s.p.N2
	s.sweep(s.f.Row(blk, i2), s.f.Row(ablk, i2), bblk, s.f.rowOff, i2, n2-1, 0, n2, maxplus.Pre[T]{})
}

// dmpTriangle computes one triangle under the given intra-triangle
// strategy.
func (s *gsolver[T]) dmpTriangle(i1, j1 int, v DMPVariant, pf func(n, workers int, f func(int))) {
	s.dmpSeedTriangle(i1, j1)
	if i1 == j1 {
		return
	}
	blk := s.f.Block(i1, j1)
	n2 := s.p.N2
	switch v {
	case DMPCoarse:
		for k1 := i1; k1 < j1; k1++ {
			ablk, bblk := s.f.Block(i1, k1), s.f.Block(k1+1, j1)
			for i2 := 0; i2 < n2; i2++ {
				s.dmpAccumulateRow(blk, ablk, bblk, i2)
			}
		}
	case DMPFineDiag, DMPFineBottomUp:
		pf(n2, s.cfg.Workers, func(i2 int) {
			for k1 := i1; k1 < j1; k1++ {
				s.dmpAccumulateRow(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i2)
			}
		})
	case DMPTiled:
		ti := s.cfg.TileI2
		tiles := (n2 + ti - 1) / ti
		pf(tiles, s.cfg.Workers, func(t int) {
			r0 := t * ti
			r1 := r0 + ti
			if r1 > n2 {
				r1 = n2
			}
			for k1 := i1; k1 < j1; k1++ {
				s.r0Tiled(blk, s.f.Block(i1, k1), s.f.Block(k1+1, j1), i1, j1, k1, r0, r1, false)
			}
		})
	}
}

// solveDMPScheduled drives the wavefront/triangle orders for the
// coarse, fine and tiled schedules.
func solveDMPScheduled(p *Problem, v DMPVariant, cfg Config) *FTable {
	cfg, release := cfg.ScopedEngine(cfg.Workers)
	defer release()
	s := newSolver(p, cfg, p.N1, p.N2)
	pf := s.cfg.pfor()
	switch v {
	case DMPCoarse:
		// Triangles of one wavefront in parallel, each sequential inside.
		for d1 := 0; d1 < p.N1; d1++ {
			pf(p.N1-d1, cfg.Workers, func(i1 int) {
				s.dmpTriangle(i1, i1+d1, v, pf)
			})
		}
	case DMPFineBottomUp:
		// Triangles one at a time, bottom-up and left-to-right.
		for i1 := p.N1 - 1; i1 >= 0; i1-- {
			for j1 := i1; j1 < p.N1; j1++ {
				s.dmpTriangle(i1, j1, v, pf)
			}
		}
	default: // DMPFineDiag, DMPTiled: triangles one at a time, diagonal order.
		for d1 := 0; d1 < p.N1; d1++ {
			for i1 := 0; i1+d1 < p.N1; i1++ {
				s.dmpTriangle(i1, i1+d1, v, pf)
			}
		}
	}
	return s.f
}
