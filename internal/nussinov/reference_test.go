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
// line). Candidates and their order are exactly the pre-stream per-cell
// fill's, every ⊕ as add(candidate, accumulator).
func referenceFill[T semiring.Scalar](data []T, n, p int, k semiring.Kernels[T], unit T, score func(i, j int) T) {
	add, mul := k.Add, k.Mul
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			data[i*p+j] = k.One
		}
		data[i*p+i] = unit
	}
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			j := i + d
			row := data[i*p : i*p+n : i*p+n]
			best := mul(row[i], data[(i+1)*p+j])         // i unpaired ⊗ S[i+1, j]
			best = add(mul(row[j-1], data[j*p+j]), best) // S[i, j-1] ⊗ j unpaired
			best = add(mul(data[(i+1)*p+j-1], score(i, j)), best)
			idx := (i+1)*p + j // walks S[s+1, j] down column j
			for s := i; s < j; s++ {
				best = add(mul(row[s], data[idx]), best)
				idx += p
			}
			row[j] = best
		}
	}
}

// ReferenceBuild is Build by the per-cell oracle.
func ReferenceBuild(n int, score ScoreFunc) *Table {
	return ReferenceBuildG(n, semiring.MaxPlusKernelsGo(), 0, score)
}

// ReferenceBuildG is a GTable filled by the per-cell oracle.
func ReferenceBuildG[T semiring.Scalar](n int, k semiring.Kernels[T], unit T, score func(i, j int) T) *GTable[T] {
	t := NewGTable[T](n)
	t.one = k.One
	referenceFill(t.data, n, t.pitch, k, unit, score)
	return t
}

// BuildContext is the production build of a fresh max-plus table: the one
// FillContext call, handing back no table on an error. exact is
// FillContext's: the closure form where the caller's sums are exact.
func BuildContext(ctx context.Context, n int, score ScoreFunc, exact bool, pfor ParallelFor) (*Table, error) {
	t := NewGTable[float32](n)
	if err := t.FillContext(ctx, semiring.MaxPlusKernels(true), 0, ScoreRows(n, score), exact, pfor); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildTiled is BuildContext at any cutoff, tile edge and kernel bundle:
// production builds pad and tile only from SequentialCutoff up, with
// tileEdge tiles (closureTile in the closure form), far beyond what a
// per-cell oracle can follow.
func BuildTiled(ctx context.Context, n, tile, cutoff int, k semiring.Kernels[float32], score ScoreFunc, exact bool, pfor ParallelFor) (*Table, error) {
	t := NewGTable[float32](n)
	if err := t.fillContext(ctx, k, 0, ScoreRows(n, score), exact, pfor, cutoff, tile); err != nil {
		return nil, err
	}
	return t, nil
}
