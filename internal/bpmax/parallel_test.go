package bpmax

import (
	"testing"
	"time"
)

// The test below keeps the sizes the deleted fork-join loops were held to,
// on the paths that replaced them: a loop with no engine under it, and a
// team narrower than the width asked for.
func TestParallelForCoversAllIndices(t *testing.T) {
	e := NewEngine(3)
	defer e.Close()
	var none *Engine
	for name, run := range map[string]pforFunc{"nil-engine": none.Run, "engine-3": e.Run} {
		checkCoversAllIndices(t, name, run, []int{0, 1, 2, 7, 100}, []int{0, 1, 5, 64})
	}
}

func TestResolveWorkers(t *testing.T) {
	if resolveWorkers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if resolveWorkers(0) < 1 || resolveWorkers(-5) < 1 {
		t.Error("default workers must be positive")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.TileI2 != 64 || c.TileK2 != 64 || c.TileJ2 != 0 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{TileI2: 5, TileK2: 7, TileJ2: 9}.withDefaults()
	if c2.TileI2 != 5 || c2.TileK2 != 7 || c2.TileJ2 != 9 {
		t.Errorf("explicit tiles overridden: %+v", c2)
	}
}

func TestMapKindString(t *testing.T) {
	if MapBox.String() != "box" || MapPacked.String() != "packed" {
		t.Error("MapKind labels")
	}
	if MapKind(9).String() == "" {
		t.Error("unknown MapKind should render")
	}
}

func TestFTableBlockRowConsistency(t *testing.T) {
	for _, kind := range []MapKind{MapBox, MapPacked} {
		f := NewFTable(4, 6, kind)
		// Write through Set, read through Row.
		v := float32(1)
		for i1 := 0; i1 < 4; i1++ {
			for j1 := i1; j1 < 4; j1++ {
				for i2 := 0; i2 < 6; i2++ {
					for j2 := i2; j2 < 6; j2++ {
						f.Set(i1, j1, i2, j2, v)
						blk := f.Block(i1, j1)
						if got := f.Row(blk, i2)[j2]; got != v {
							t.Fatalf("%v: Row read %v, want %v", kind, got, v)
						}
						if got := f.At(i1, j1, i2, j2); got != v {
							t.Fatalf("%v: At read %v, want %v", kind, got, v)
						}
						v++
					}
				}
			}
		}
	}
}

func TestFTableBlocksDisjoint(t *testing.T) {
	f := NewFTable(3, 4, MapPacked)
	f.Block(0, 1)[0] = 42
	for i1 := 0; i1 < 3; i1++ {
		for j1 := i1; j1 < 3; j1++ {
			if i1 == 0 && j1 == 1 {
				continue
			}
			for _, x := range f.Block(i1, j1) {
				if x == 42 {
					t.Fatalf("block (%d,%d) aliases block (0,1)", i1, j1)
				}
			}
		}
	}
}

func TestFTableBytes(t *testing.T) {
	box := NewFTable(4, 8, MapBox)
	packed := NewFTable(4, 8, MapPacked)
	if box.Bytes() != int64(10*64*4) {
		t.Errorf("box bytes = %d", box.Bytes())
	}
	if packed.Bytes() != int64(10*36*4) {
		t.Errorf("packed bytes = %d", packed.Bytes())
	}
}

func TestTriangleOpsFormula(t *testing.T) {
	// Cross-check against the global formulas: summing TriangleOps over
	// all triangles must reproduce the per-reduction totals.
	for _, c := range [][2]int{{4, 5}, {7, 3}, {1, 6}} {
		n1, n2 := c[0], c[1]
		var total int64
		for d1 := 0; d1 < n1; d1++ {
			total += int64(n1-d1) * TriangleOps(d1, n2)
		}
		want := R0Elements(n1, n2) + R1R2Elements(n1, n2) + R3R4Elements(n1, n2) +
			2*CellElements(n1, n2)
		if total != want {
			t.Errorf("n1=%d n2=%d: TriangleOps total %d, want %d", n1, n2, total, want)
		}
	}
}

// TestPerformanceOrdering asserts the headline qualitative result on this
// host: the streaming hybrid-tiled schedule beats the original gather
// baseline by a wide margin. Skipped in -short mode (timing-sensitive).
func TestPerformanceOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	p := newTestProblem(t, 99, 12, 64)
	base := timeSolve(p, VariantBase)
	tiled := timeSolve(p, VariantHybridTiled)
	if tiled*2 >= base {
		t.Errorf("hybrid-tiled (%v) not at least 2x faster than base (%v)", tiled, base)
	}
}

func timeSolve(p *Problem, v Variant) int64 {
	best := int64(1 << 62)
	for i := 0; i < 2; i++ {
		start := nowNanos()
		Solve(p, v, Config{})
		if d := nowNanos() - start; d < best {
			best = d
		}
	}
	return best
}

func nowNanos() int64 { return time.Now().UnixNano() }
