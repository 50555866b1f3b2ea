package nussinov

import (
	"context"

	"github.com/bpmax-go/bpmax/internal/semiring"
)

// referenceFill is the per-cell recurrence the streamed fill (fill.go)
// replaced, kept as the oracle the differential tests and
// FuzzSubstrateParity compare against: anti-diagonal order, every cell
// scanning its splits with S[s+1, j] walked down a column — the gather the
// paper measures as the slow schedule, and the only place in the serving
// tree's substrate package that still does it (./ci.sh lint holds that
// line). Candidates and their order are exactly the pre-stream Table.cell /
// GTable.FillContext ones, every ⊕ as add(candidate, accumulator).
func referenceFill[T semiring.Scalar](data []T, n int, k semiring.Kernels[T], unit T, score func(i, j int) T) {
	add, mul := k.Add, k.Mul
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			data[i*n+j] = k.One
		}
		data[i*n+i] = unit
	}
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			j := i + d
			row := data[i*n : i*n+n : i*n+n]
			best := mul(row[i], data[(i+1)*n+j])         // i unpaired ⊗ S[i+1, j]
			best = add(mul(row[j-1], data[j*n+j]), best) // S[i, j-1] ⊗ j unpaired
			best = add(mul(data[(i+1)*n+j-1], score(i, j)), best)
			idx := (i+1)*n + j // walks S[s+1, j] down column j
			for s := i; s < j; s++ {
				best = add(mul(row[s], data[idx]), best)
				idx += n
			}
			row[j] = best
		}
	}
}

// ReferenceBuild is Build by the per-cell oracle.
func ReferenceBuild(n int, score ScoreFunc) *Table {
	t := NewTable(n)
	referenceFill(t.data, n, semiring.MaxPlusKernelsGo(false), 0, score)
	return t
}

// ReferenceBuildG is a GTable filled by the per-cell oracle.
func ReferenceBuildG[T semiring.Scalar](n int, k semiring.Kernels[T], unit T, score func(i, j int) T) *GTable[T] {
	t := NewGTable[T](n)
	t.one = k.One
	referenceFill(t.data, n, k, unit, score)
	return t
}

// BuildWith is Build on an explicit kernel bundle, so the external tests can
// run the streamed fill on the portable Go bodies next to the AVX2 ones.
func BuildWith(n int, k semiring.Kernels[float32], score ScoreFunc) *Table {
	t := NewTable(n)
	_ = fill(context.Background(), t.data, n, k, 0, score) // Background never cancels
	return t
}

// BuildTiled runs the parallel form at any size and tile edge: production
// builds tile only from SequentialCutoff up, with tileEdge tiles, far beyond
// what a per-cell oracle can follow.
func BuildTiled(ctx context.Context, n, tile int, k semiring.Kernels[float32], score ScoreFunc, pfor ParallelFor) (*Table, error) {
	t := NewTable(n)
	if err := fillTiled(ctx, t.data, n, tile, k, 0, score, pfor); err != nil {
		return nil, err
	}
	return t, nil
}
