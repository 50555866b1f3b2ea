package bpmax

import "github.com/bpmax-go/bpmax/internal/bufpool"

// EstimateBytes returns the F-table storage a full fold of an n1 × n2
// problem allocates under the given memory map, in bytes, without
// allocating anything. It is exact: NewFTable(n1, n2, kind).Bytes() returns
// the same number. The S¹/S² substrate tables (O(N²) apiece) and traceback
// scratch are not counted — the F table dominates by orders of magnitude at
// any size where budgeting matters.
func EstimateBytes(n1, n2 int, kind MapKind) int64 {
	return EstimateBytesSized(n1, n2, kind, 4)
}

// EstimateWindowedBytes returns the banded table storage of a windowed scan
// with windows (w1, w2), in bytes, clamping the windows to the sequence
// lengths exactly as the table does. Non-positive sizes or windows
// estimate to 0.
func EstimateWindowedBytes(n1, n2, w1, w2 int) int64 {
	return int64(tableElems(n1, n2, w1, w2, MapPacked)) * 4
}

// EstimatePooledBytes is EstimateBytes rounded up to the buffer pool's size
// class: a pooled fold draws (and later retains) a class-rounded buffer,
// which can be up to 2× the exact table size, so budgeting pooled folds
// with the exact estimate would under-count.
func EstimatePooledBytes(n1, n2 int, kind MapKind) int64 {
	return new(bufpool.Pool).HeldBytesAfter(tableElems(n1, n2, n1, n2, kind))
}

// EstimateBytesSized is EstimateBytes for an arbitrary element width: the
// partition fill stores float64 (elemBytes 8), so its tables cost twice the
// max-plus estimate at the same shape.
func EstimateBytesSized(n1, n2 int, kind MapKind, elemBytes int) int64 {
	return int64(tableElems(n1, n2, n1, n2, kind)) * int64(elemBytes)
}
