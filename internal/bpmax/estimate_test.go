package bpmax

import "testing"

func TestEstimateBytesMatchesAllocation(t *testing.T) {
	for _, kind := range []MapKind{MapBox, MapPacked} {
		for _, c := range [][2]int{{1, 1}, {4, 8}, {13, 7}, {21, 21}} {
			n1, n2 := c[0], c[1]
			want := NewFTable(n1, n2, kind).Bytes()
			if got := EstimateBytes(n1, n2, kind); got != want {
				t.Errorf("EstimateBytes(%d, %d, %v) = %d, allocated %d", n1, n2, kind, got, want)
			}
		}
	}
	if EstimateBytes(0, 5, MapBox) != 0 || EstimateBytes(5, -1, MapPacked) != 0 {
		t.Error("degenerate sizes must estimate 0")
	}
}

func TestEstimateWindowedBytesMatchesAllocation(t *testing.T) {
	for _, c := range [][4]int{
		{8, 8, 3, 3},
		{13, 7, 5, 2},
		{9, 9, 20, 20}, // windows clamp to the lengths
		{21, 5, 1, 1},
	} {
		n1, n2, w1, w2 := c[0], c[1], c[2], c[3]
		want := newTable[float32](nil, n1, n2, w1, w2, MapPacked).Bytes()
		if got := EstimateWindowedBytes(n1, n2, w1, w2); got != want {
			t.Errorf("EstimateWindowedBytes(%d, %d, %d, %d) = %d, allocated %d", n1, n2, w1, w2, got, want)
		}
	}
	if EstimateWindowedBytes(5, 5, 0, 3) != 0 {
		t.Error("non-positive window must estimate 0")
	}
}

func TestEstimatePackedHalvesBox(t *testing.T) {
	// The paper's quarter-space map stores N2(N2+1)/2 of the N2² bounding
	// box per triangle — the degradation ladder's first rung relies on the
	// packed table always being strictly smaller (for n2 > 1).
	box := EstimateBytes(30, 30, MapBox)
	packed := EstimateBytes(30, 30, MapPacked)
	if packed >= box {
		t.Errorf("packed %d not smaller than box %d", packed, box)
	}
	if 2*packed <= box {
		t.Errorf("packed %d should be just over half of box %d", packed, box)
	}
}
