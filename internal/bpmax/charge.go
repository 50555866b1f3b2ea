package bpmax

// Charge is the memory model: the one function that prices a table layout.
// The layout is an n1 × n2 table under the given map storing the band
// (w1, w2) — the lengths themselves for a full fold, windows clamped to the
// lengths as the table clamps them — with width-byte cells: 4 for the
// float32 max-plus tables, 8 for the float64 partition tables. Non-positive
// sizes or windows cost 0.
//
// Without a pool the charge is the exact table size, allocating nothing:
// newTable's Bytes returns the same number. With one it is what the pool
// would hold once the fold drew its table: the matching arena's retention
// plus the class-rounded buffer the draw adds when no idle buffer of its
// class is free, plus the other arena's retention. A fold whose table fits
// an idle buffer is therefore charged the retention, not retention plus a
// second table, while a fresh draw is charged its class, up to twice the
// exact size.
//
// Either way it adds the live words a fill may hold beside the table.
//
// The degradation ladder prices each rung with it, the public estimates are
// its unpooled value, and ci.sh lint keeps the arena's HeldBytesAfter from
// being called outside this file.
func Charge(pl *Pool, n1, n2, w1, w2 int, kind MapKind, width int) int64 {
	elems := tableElems(n1, n2, w1, w2, kind)
	live := liveBytes(elems, n1, n2, w2, kind, width)
	switch {
	case pl == nil:
		return int64(elems)*int64(width) + live
	case width == 8:
		return pl.f64.buf.HeldBytesAfter(elems) + pl.f32.buf.RetainedBytes() + live
	default:
		return pl.f32.buf.HeldBytesAfter(elems) + pl.f64.buf.RetainedBytes() + live
	}
}

// liveBytes is the live words a masked fill of a layout of elems cells holds
// beside its table (armMasks), for a float32 — max-plus — layout that takes
// masks (fillForm): every block's kernel-tile bit-sets under the default row
// tile (the one every fold runs), ⌈n2/64⌉ words a row of each of the n1
// triangles' word scratch, and four a row group for R1's tile bit-sets. S²'s
// own words belong to S² (ProblemBytes prices them).
func liveBytes(elems, n1, n2, w2 int, kind MapKind, width int) int64 {
	if _, _, masks := fillForm(kind, n2, w2, width == 4); !masks {
		return 0
	}
	w := (n2 + 63) / 64
	return int64(elems/(n2*n2)*tileSetWords(n2, defaultTileI2, nil)+(n1*n2+(n2+prodRows-1)/prodRows*4)*w) * 8
}
