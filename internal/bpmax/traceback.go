package bpmax

import (
	"fmt"
	"sort"

	"github.com/bpmax-go/bpmax/internal/nussinov"
)

// InterPair is one intermolecular base pair: seq1 position I1 bonded to
// seq2 position I2.
type InterPair struct{ I1, I2 int }

// Structure is a joint secondary structure recovered from a filled F table:
// the intramolecular pairs of each strand plus the intermolecular bonds.
type Structure struct {
	Intra1 []nussinov.Pair
	Intra2 []nussinov.Pair
	Inter  []InterPair
}

// Weight returns the structure's total score under p's model.
func (st *Structure) Weight(p *Problem) float32 {
	var total float32
	for _, pr := range st.Intra1 {
		total += p.score1(pr.I, pr.J)
	}
	for _, pr := range st.Intra2 {
		total += p.score2(pr.I, pr.J)
	}
	for _, pr := range st.Inter {
		total += p.iscore(pr.I1, pr.I2)
	}
	return total
}

// sortPairs orders the recovered pairs for stable output.
func (st *Structure) sortPairs() {
	sort.Slice(st.Intra1, func(a, b int) bool { return st.Intra1[a].I < st.Intra1[b].I })
	sort.Slice(st.Intra2, func(a, b int) bool { return st.Intra2[a].I < st.Intra2[b].I })
	sort.Slice(st.Inter, func(a, b int) bool { return st.Inter[a].I1 < st.Inter[b].I1 })
}

// Traceback recovers one optimal joint structure for the whole pair from a
// filled full table; see TracebackFrom.
func Traceback(p *Problem, f *FTable) *Structure {
	return TracebackFrom(p, f, 0, p.N1-1, 0, p.N2-1)
}

// TracebackFrom recovers one optimal joint structure for stored cell
// (ti1, tj1, ti2, tj2) of a filled table by re-checking, at every cell,
// which recurrence candidate achieves the stored optimum (any tie is equally
// optimal). The decomposition of a cell only ever visits cells no wider than
// it, so on a banded table any in-window cell can be traced; a cell outside
// the band panics. Cost is O(N1·N2) per decomposition step — negligible next
// to the fill.
func TracebackFrom(p *Problem, f *FTable, ti1, tj1, ti2, tj2 int) *Structure {
	if !f.InWindow(ti1, tj1, ti2, tj2) {
		panic(fmt.Sprintf("bpmax: traceback of out-of-window cell (%d,%d,%d,%d)", ti1, tj1, ti2, tj2))
	}
	st := &Structure{}
	sc1 := func(i, j int) float32 { return p.score1(i, j) }
	sc2 := func(i, j int) float32 { return p.score2(i, j) }
	var walk func(i1, j1, i2, j2 int)
	walk = func(i1, j1, i2, j2 int) {
		if j1 < i1 {
			if j2 >= i2 {
				st.Intra2 = append(st.Intra2, p.S2.TracebackInterval(i2, j2, sc2)...)
			}
			return
		}
		if j2 < i2 {
			st.Intra1 = append(st.Intra1, p.S1.TracebackInterval(i1, j1, sc1)...)
			return
		}
		v := f.At(i1, j1, i2, j2)
		if i1 == j1 && i2 == j2 {
			if v > 0 {
				st.Inter = append(st.Inter, InterPair{i1, i2})
			}
			return
		}
		// Pair i1-j1 around the seq2 interval.
		if j1 > i1 && v == p.at(f, i1+1, j1-1, i2, j2)+p.score1(i1, j1) {
			st.Intra1 = append(st.Intra1, nussinov.Pair{I: i1, J: j1})
			walk(i1+1, j1-1, i2, j2)
			return
		}
		// Pair i2-j2 around the seq1 interval.
		if j2 > i2 && v == p.at(f, i1, j1, i2+1, j2-1)+p.score2(i2, j2) {
			st.Intra2 = append(st.Intra2, nussinov.Pair{I: i2, J: j2})
			walk(i1, j1, i2+1, j2-1)
			return
		}
		// Independent folds.
		if v == p.S1.At(i1, j1)+p.S2.At(i2, j2) {
			st.Intra1 = append(st.Intra1, p.S1.TracebackInterval(i1, j1, sc1)...)
			st.Intra2 = append(st.Intra2, p.S2.TracebackInterval(i2, j2, sc2)...)
			return
		}
		// R1 / R2: one seq2 flank folds alone.
		for k2 := i2; k2 < j2; k2++ {
			if v == p.S2.At(i2, k2)+f.At(i1, j1, k2+1, j2) {
				st.Intra2 = append(st.Intra2, p.S2.TracebackInterval(i2, k2, sc2)...)
				walk(i1, j1, k2+1, j2)
				return
			}
			if v == f.At(i1, j1, i2, k2)+p.S2.At(k2+1, j2) {
				st.Intra2 = append(st.Intra2, p.S2.TracebackInterval(k2+1, j2, sc2)...)
				walk(i1, j1, i2, k2)
				return
			}
		}
		// R3 / R4: one seq1 flank folds alone.
		for k1 := i1; k1 < j1; k1++ {
			if v == p.S1.At(i1, k1)+f.At(k1+1, j1, i2, j2) {
				st.Intra1 = append(st.Intra1, p.S1.TracebackInterval(i1, k1, sc1)...)
				walk(k1+1, j1, i2, j2)
				return
			}
			if v == f.At(i1, k1, i2, j2)+p.S1.At(k1+1, j1) {
				st.Intra1 = append(st.Intra1, p.S1.TracebackInterval(k1+1, j1, sc1)...)
				walk(i1, k1, i2, j2)
				return
			}
		}
		// R0: the double split.
		for k1 := i1; k1 < j1; k1++ {
			for k2 := i2; k2 < j2; k2++ {
				if v == f.At(i1, k1, i2, k2)+f.At(k1+1, j1, k2+1, j2) {
					walk(i1, k1, i2, k2)
					walk(k1+1, j1, k2+1, j2)
					return
				}
			}
		}
		panic(fmt.Sprintf("bpmax: traceback stuck at (%d,%d,%d,%d) = %v", i1, j1, i2, j2, v))
	}
	walk(ti1, tj1, ti2, tj2)
	st.sortPairs()
	return st
}

// DotBracket renders the joint structure: the intramolecular layer of each
// strand in dot-bracket notation, with '[' / ']' marking intermolecularly
// bonded positions.
func (st *Structure) DotBracket(n1, n2 int) (string, string) {
	render := func(n int, intra []nussinov.Pair, interPos []int) string {
		out := []byte(nussinov.DotBracket(n, intra))
		for _, pos := range interPos {
			if out[pos] != '.' {
				panic(fmt.Sprintf("bpmax: position %d both intra- and intermolecular", pos))
			}
			out[pos] = '['
		}
		return string(out)
	}
	var pos1, pos2 []int
	for _, pr := range st.Inter {
		pos1 = append(pos1, pr.I1)
		pos2 = append(pos2, pr.I2)
	}
	return render(n1, st.Intra1, pos1), render(n2, st.Intra2, pos2)
}
