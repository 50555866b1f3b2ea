package nussinov_test

import (
	"context"
	"testing"

	"github.com/bpmax-go/bpmax/internal/fourrussians"
	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// FuzzSubstrateParity is the bit-identity gate of every single-strand fill:
// for arbitrary sequences and all three stock score models, the streamed
// table (on the process's kernels and on the portable Go ones, in fresh
// storage and in a pooled table's dirty storage after Reset), the table
// FillContext tiles across workers and the Four-Russians comparator's table
// (an independent implementation of the recurrence, off the serving path)
// must equal the per-cell reference's bit for bit, and a traceback over the
// streamed table must reach the reference's total weight.
func FuzzSubstrateParity(f *testing.F) {
	f.Add("GGGAAACCC")
	f.Add("GCGC")
	f.Add("A")
	f.Add("")
	f.Add("ACGUACGUACGUACGUACGUACGUACGUACGUACGUACGU")
	f.Add("GGGGGGGGGGGGGGGGCCCCCCCCCCCCCCCC")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 300 {
			t.Skip("cap the O(n³) fills")
		}
		seq, err := rna.New(s)
		if err != nil {
			t.Skip("non-nucleotide input")
		}
		n := seq.Len()
		for _, m := range []score.Model{score.BasePair(), score.Unit(), score.Forbidden("forbidden")} {
			maxStep, ok := m.IntegerBounded()
			if !ok {
				t.Fatalf("%s: not integer-bounded", m.Name())
			}
			sc := func(i, j int) float32 { return m.Pair(seq.At(i), seq.At(j)) }
			want := nussinov.ReferenceBuild(n, sc)
			streamed := nussinov.Build(n, sc)
			// FillContext's tiled form, at a cutoff and tile edge a fuzzed
			// strand reaches.
			tiled, err := nussinov.BuildTiled(context.Background(), n, 16, 0, semiring.MaxPlusKernels(false), sc, nussinov.ForkJoin(2))
			if err != nil {
				t.Fatalf("%s: tiled build: %v", m.Name(), err)
			}
			// A pooled problem's table: larger storage full of another fold's
			// cells, Reset to this strand and filled in place.
			pooled := nussinov.NewGTable[float32](n + 5)
			for i := range pooled.Data() {
				pooled.Data()[i] = float32(i%7) - 3
			}
			pooled.Reset(n)
			if err := pooled.FillContext(context.Background(), semiring.MaxPlusKernels(true), 0, sc, nil); err != nil {
				t.Fatalf("%s: pooled fill: %v", m.Name(), err)
			}
			subjects := map[string]*nussinov.Table{
				"streamed":      streamed,
				"streamed-go":   nussinov.BuildG(n, semiring.MaxPlusKernelsGo(false), sc),
				"tiled":         tiled,
				"pooled":        pooled,
				"four-russians": fourrussians.Build(n, sc, maxStep),
			}
			wd := want.Data()
			for name, got := range subjects {
				gd := got.Data()
				for idx := range wd {
					if gd[idx] != wd[idx] {
						t.Fatalf("%s %s: S[%d,%d] = %v, reference %v (seq %q)",
							m.Name(), name, idx/n, idx%n, gd[idx], wd[idx], s)
					}
				}
			}
			if n > 0 {
				pairs := streamed.Traceback(sc)
				if gw, ww := nussinov.PairsWeight(pairs, sc), want.At(0, n-1); gw != ww {
					t.Fatalf("%s: traceback weight %v != reference S %v (seq %q)", m.Name(), gw, ww, s)
				}
			}
		}
	})
}
