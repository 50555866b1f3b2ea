package maxplus_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
)

// BenchmarkR2Row times finalize's max-plus R2 over every row of every
// triangle of a real 16 × N2 fold, N2 64, 128 and 256, on every body: the
// fused kernel (Body.R2) against the dense form it replaced, a sweep of every
// split into a row of Zero (Body.Sweep), the merge of that row into the row
// with its live words (a Go loop here: the vector merge went with the dense
// form) and the row's reset. The rows are the filled table's: a final row is
// R2's fixed point, which R2 leaves as it is with the same live columns
// (docs/ALGORITHM.md §9), so the kernel meets the fill's own live share. The
// sweep/ rows without the merge bound the dense form from below.
func BenchmarkR2Row(b *testing.B) {
	for _, n2 := range []int{64, 128, 256} {
		rng := rand.New(rand.NewSource(int64(n2)))
		p, err := bpmax.NewProblem(rna.Random(rng, 16), rna.Random(rng, n2), score.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		ft := bpmax.Solve(p, bpmax.VariantHybridTiled, bpmax.Config{Workers: 1})
		var rows [][]float32
		var from []int
		tris := max(1, (256<<10)/(4*n2*n2)) // 256 KiB of rows: L2, as the fill's are
		for t := range tris {
			blk := ft.Block(0, t*(p.N1-1)/max(1, tris-1))
			for i2 := n2 - 1; i2 >= 0; i2-- {
				rows, from = append(rows, ft.Row(blk, i2)[:n2]), append(from, i2)
			}
		}
		star, lds := p.S2.Data(), p.S2.Pitch()
		off := make([]int, n2)
		for r := range off {
			off[r] = r * lds
		}
		zero := make([]float32, n2)
		for j := range zero {
			zero[j] = -1e30
		}
		live := make([]uint64, (n2+63)/64)
		for _, impl := range maxplus.Impls()[:len(maxplus.Impls())-1] {
			body := maxplus.BodyOf[float32](impl)
			perRow := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
			}
			b.Run(fmt.Sprintf("r2/%s/n2=%d", impl, n2), func(b *testing.B) {
				for range b.N {
					for r, c := range rows {
						body.R2(c, star, lds, from[r], n2, live)
					}
				}
				perRow(b)
			})
			pre := append([]float32(nil), zero...)
			for _, merge := range []bool{false, true} {
				name := "sweep"
				if merge {
					name = "sweep+merge"
				}
				b.Run(fmt.Sprintf("%s/%s/n2=%d", name, impl, n2), func(b *testing.B) {
					for range b.N {
						for r, c := range rows {
							i2 := from[r]
							body.Sweep(pre, c, star, off, i2, n2-1, 0, n2, maxplus.Pre[float32]{})
							if merge {
								mergeRow(c, pre, live, i2)
								copy(pre[i2:], zero)
							}
						}
					}
					perRow(b)
				})
			}
		}
		ft.Release()
	}
}

// mergeRow is the dense form's merge: c = c ⊕ y, c on a tie, bit j of live
// where c[j] beat y[j].
func mergeRow(c, y []float32, live []uint64, k0 int) {
	clear(live)
	for j := k0; j < len(c); j++ {
		switch {
		case c[j] > y[j]:
			live[j>>6] |= 1 << (j & 63)
		case y[j] > c[j]:
			c[j] = y[j]
		}
	}
}
