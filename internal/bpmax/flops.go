package bpmax

// Analytic operation counts. The paper converts kernel work to GFLOPS with
// the max-plus convention: each reduction element costs 2 FLOPs (one add,
// one max). The formulas below count reduction elements exactly; tests
// cross-check them against instrumented trip counters.

// triples returns |{(i, k, j) : 0 <= i <= k < j < n}| = C(n+1, 3).
// This is the number of (interval, split point) combinations over n points.
func triples(n int) int64 {
	m := int64(n)
	return m * (m + 1) * (m - 1) / 6
}

// pairs returns |{(i, j) : 0 <= i <= j < n}| = n(n+1)/2.
func pairs(n int) int64 {
	m := int64(n)
	return m * (m + 1) / 2
}

// R0Elements returns the number of max-plus elements in the double max-plus
// reduction: every (i1 <= k1 < j1) × (i2 <= k2 < j2) combination.
func R0Elements(n1, n2 int) int64 { return triples(n1) * triples(n2) }

// R1R2Elements returns the combined element count of the two seq2-split
// reductions: 2 × pairs(N1) × triples(N2) — the Θ(M²N³) terms that bound
// full-BPMax performance.
func R1R2Elements(n1, n2 int) int64 { return 2 * pairs(n1) * triples(n2) }

// R3R4Elements returns the combined element count of the two seq1-split
// reductions: 2 × triples(N1) × pairs(N2) ("almost free" next to R0).
func R3R4Elements(n1, n2 int) int64 { return 2 * triples(n1) * pairs(n2) }

// CellElements returns the number of table cells, each of which also pays
// a constant number of candidate comparisons (pairing terms, independent
// folds, base cases).
func CellElements(n1, n2 int) int64 { return pairs(n1) * pairs(n2) }

// DMPFlops returns the FLOP count of the standalone double max-plus system
// (2 FLOPs per R0 element).
func DMPFlops(n1, n2 int) int64 { return 2 * R0Elements(n1, n2) }

// BPMaxFlops returns the FLOP count of the full BPMax fill: the five
// reductions at 2 FLOPs per element plus 8 FLOPs of per-cell candidate
// work (four candidate sums and four max comparisons).
func BPMaxFlops(n1, n2 int) int64 {
	r := R0Elements(n1, n2) + R1R2Elements(n1, n2) + R3R4Elements(n1, n2)
	return 2*r + 8*CellElements(n1, n2)
}

// measureR0Elements counts double max-plus elements by brute-force loop
// enumeration; it exists to validate R0Elements in tests at small sizes.
func measureR0Elements(n1, n2 int) int64 {
	var c int64
	for i1 := 0; i1 < n1; i1++ {
		for j1 := i1; j1 < n1; j1++ {
			for i2 := 0; i2 < n2; i2++ {
				for j2 := i2; j2 < n2; j2++ {
					for k1 := i1; k1 < j1; k1++ {
						for k2 := i2; k2 < j2; k2++ {
							c++
						}
					}
				}
			}
		}
	}
	return c
}
