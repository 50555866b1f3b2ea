package nussinov_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/bpmax-go/bpmax/internal/fourrussians"
	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// FuzzSubstrateParity is the bit-identity gate of every single-strand fill:
// for arbitrary sequences, all three stock score models and a minimum
// hairpin loop, the streamed table in both forms — the per-split walk and the
// closure sweep — (on every kernel body the process can run, in fresh
// storage and in a pooled table's dirty storage after Reset), the tables
// FillContext pads and tiles, inline and across workers, in both forms, and
// the Four-Russians comparator's table (an independent implementation of the
// recurrence, off the serving path) must equal the per-cell reference's bit
// for bit, and a traceback over the streamed table must reach the
// reference's total weight.
func FuzzSubstrateParity(f *testing.F) {
	f.Add("GGGAAACCC")
	f.Add("GCGC")
	f.Add("A")
	f.Add("")
	f.Add("ACGUACGUACGUACGUACGUACGUACGUACGUACGUACGU")
	f.Add("GGGGGGGGGGGGGGGGCCCCCCCCCCCCCCCC")
	f.Add("GGGAAACCCUUUGGGAAACCCUUUGGGAAACCCUUUGGGAAACCCUUUGGGAAACCCUUUGGGAAACCCU") // 70 nt: padded to 192 past a 64-cell row
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 300 {
			t.Skip("cap the O(n³) fills")
		}
		seq, err := rna.New(s)
		if err != nil {
			t.Skip("non-nucleotide input")
		}
		n := seq.Len()
		hairpin := score.Params{Model: score.BasePair(), MinHairpin: 3}
		for _, p := range []score.Params{{Model: score.BasePair()}, {Model: score.Unit()}, {Model: score.Forbidden("forbidden")}, hairpin} {
			label := fmt.Sprintf("%s hairpin %d", p.Model.Name(), p.MinHairpin)
			maxStep, ok := p.Model.IntegerBounded()
			if !ok {
				t.Fatalf("%s: not integer-bounded", label)
			}
			sc := score.WeightsOf(seq, p).At
			want := nussinov.ReferenceBuild(n, sc)
			streamed := nussinov.Build(n, sc)
			subjects := map[string]*nussinov.Table{
				"streamed":      streamed,
				"streamed-go":   nussinov.BuildG(n, semiring.MaxPlusKernelsGo(false), sc),
				"four-russians": fourrussians.Build(n, sc, maxStep),
			}
			for _, exact := range []bool{false, true} {
				form := map[bool]string{false: "walk", true: "closure"}[exact]
				for _, impl := range maxplus.Impls() {
					got, err := nussinov.BuildTiled(context.Background(), n, 16, 0, semiring.MaxPlusKernelsOf(impl), sc, exact, nil)
					if err != nil {
						t.Fatalf("%s: %s build: %v", label, form, err)
					}
					subjects[form+"-"+impl] = got
				}
				// FillContext's padded, tiled form, at a cutoff and tile edge a
				// fuzzed strand reaches: the pitch is N only at 64, 192, ….
				tiled, err := nussinov.BuildTiled(context.Background(), n, 16, 0, semiring.MaxPlusKernels(false), sc, exact, nussinov.ForkJoin(2))
				if err != nil {
					t.Fatalf("%s: tiled build: %v", label, err)
				}
				subjects["tiled-"+form] = tiled
				// A pooled problem's table: larger storage full of another fold's
				// cells, Reset to this strand and filled in place.
				pooled := nussinov.NewGTable[float32](n + 5)
				for i := range pooled.Data() {
					pooled.Data()[i] = float32(i%7) - 3
				}
				pooled.Reset(n)
				if err := pooled.FillContext(context.Background(), semiring.MaxPlusKernels(true), 0, nussinov.ScoreRows(n, sc), exact, nil); err != nil {
					t.Fatalf("%s: pooled fill: %v", label, err)
				}
				subjects["pooled-"+form] = pooled
			}
			for name, got := range subjects {
				for i := 0; i < n; i++ {
					for j, w := range want.Row(i) {
						if g := got.Row(i)[j]; g != w {
							t.Fatalf("%s %s: S[%d,%d] = %v, reference %v (seq %q, pitch %d)",
								label, name, i, j, g, w, s, got.Pitch())
						}
					}
				}
			}
			if n > 0 {
				pairs := streamed.Traceback(sc)
				if gw, ww := nussinov.PairsWeight(pairs, sc), want.At(0, n-1); gw != ww {
					t.Fatalf("%s: traceback weight %v != reference S %v (seq %q)", label, gw, ww, s)
				}
			}
		}
	})
}
