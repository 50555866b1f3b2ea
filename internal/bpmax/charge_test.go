package bpmax

import (
	"context"
	"reflect"
	"runtime/debug"
	"testing"

	"github.com/bpmax-go/bpmax/internal/maxplus"
	"github.com/bpmax-go/bpmax/internal/nussinov"
)

func TestEstimateBytesMatchesAllocation(t *testing.T) {
	for _, kind := range []MapKind{MapBox, MapPacked} {
		for _, c := range [][2]int{{1, 1}, {4, 8}, {13, 7}, {21, 21}} {
			n1, n2 := c[0], c[1]
			want := NewFTable(n1, n2, kind).Bytes() + liveBytes(tableElems(n1, n2, n1, n2, kind), n1, n2, n2, kind, 4)
			if got := Charge(nil, n1, n2, n1, n2, kind, 4); got != want {
				t.Errorf("Charge(nil, %d, %d, %v, 4) = %d, allocated %d", n1, n2, kind, got, want)
			}
			want = newTable[float64](nil, n1, n2, n1, n2, kind, false).Bytes()
			if got := Charge(nil, n1, n2, n1, n2, kind, 8); got != want {
				t.Errorf("Charge(nil, %d, %d, %v, 8) = %d, allocated %d", n1, n2, kind, got, want)
			}
		}
	}
	if Charge(nil, 0, 5, 0, 5, MapBox, 4) != 0 || Charge(nil, 5, -1, 5, -1, MapPacked, 8) != 0 {
		t.Error("degenerate sizes must charge 0")
	}
}

// TestChargePricesLiveWords pins the masked fill's live words into the
// charge: every block's kernel-tile bit-sets, ⌈n2/64⌉ words a row of the
// triangles' word scratch, and R1's tile bit-sets, beside the table (at
// 16×128, fold's shape, 52 224 bytes of the blocks' bit-sets, 32 KiB of
// scratch and 1 KiB of R1's bit-sets: 86 016, where one word set a row of
// every block held 278 528; S²'s 2 KiB of words are S²'s, priced by
// ProblemBytes), on every kernel body; a row shorter than maskMinN2, a band
// or the packed map holds none.
func TestChargePricesLiveWords(t *testing.T) {
	for _, c := range [][2]int{{1, maskMinN2}, {3, 65}, {2, 130}, {16, 128}} {
		n1, n2 := c[0], c[1]
		p := newTestProblem(t, 9, n1, n2)
		for _, impl := range maxplus.Impls() {
			var cfg Config
			cfg.SetKernels(impl)
			s := newSolver(p, cfg, n1, n2)
			if s.r2 == nil {
				t.Fatalf("%dx%d/%s: the fill takes no masks", n1, n2, impl)
			}
			words := 8 * int64(len(s.tiles)+len(s.rowLive)+len(s.r1live))
			if got, want := Charge(nil, n1, n2, n1, n2, MapBox, 4), s.f.Bytes()+words; got != want {
				t.Errorf("%dx%d/%s: Charge %d, the fill holds %d", n1, n2, impl, got, want)
			}
			if n1 == 16 && words != 52224+32768+1024 {
				t.Errorf("16x128/%s: the live words hold %d bytes", impl, words)
			}
			s.abort()
		}
	}
	for _, c := range [][5]int{{4, maskMinN2 - 1, 4, maskMinN2 - 1, int(MapBox)}, {2, 70, 2, 69, int(MapBox)}, {2, 70, 2, 70, int(MapPacked)}} {
		n1, n2, w1, w2, kind := c[0], c[1], c[2], c[3], MapKind(c[4])
		if got, want := Charge(nil, n1, n2, w1, w2, kind, 4), newTable[float32](nil, n1, n2, w1, w2, kind, false).Bytes(); got != want {
			t.Errorf("%dx%d band %d %v: Charge %d, the table alone %d", n1, n2, w2, kind, got, want)
		}
	}
}

// TestPooledShellKeepsItsPricedTables pins what a pooled max-plus solver
// shell keeps after a 16×128 fold on every kernel body, the figure
// Pool.RetainedBytes states: every slice the shell holds is the live words
// Charge prices (liveBytes, 86 016 bytes) or one of three side tables — S²'s
// row offsets (s2off), the group offsets (tileOff) and the row of Zero
// (zeros) — 88 576 bytes in all. A side table added to the shell and left
// unpriced fails it.
func TestPooledShellKeepsItsPricedTables(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the freelist
	const n1, n2 = 16, 128
	p := newTestProblem(t, 9, n1, n2)
	for _, impl := range maxplus.Impls() {
		pl := NewPool()
		cfg := Config{Workers: 1, Pool: pl}
		cfg.SetKernels(impl)
		ft, err := SolveContext(context.Background(), p, VariantHybridTiled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ft.Release()
		hits := pl.Stats().SolverHits
		s := getSolver[float32](pl)
		if pl.Stats().SolverHits == hits || s.r2 == nil {
			t.Fatalf("%s: the pool handed back no masked shell (hit %v, r2 set %v)", impl, pl.Stats().SolverHits > hits, s.r2 != nil)
		}
		var held int64
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				held += int64(f.Cap()) * int64(f.Type().Elem().Size())
			}
		}
		live := liveBytes(tableElems(n1, n2, n1, n2, MapBox), n1, n2, n2, MapBox, 4)
		side := 8*int64(cap(s.s2off)) + 8*int64(cap(s.tileOff)) + 4*int64(cap(s.zeros))
		if held != live+side || live != 86016 || held != 88576 {
			t.Errorf("%s: the shell holds %d bytes of slices; want the live words' %d (86 016) + s2off, tileOff and zeros' %d = 88 576", impl, held, live, side)
		}
		arenaOf[float32](pl).solvers.Put(s)
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
		want := newTable[float32](nil, n1, n2, w1, w2, MapPacked, false).Bytes()
		if got := Charge(nil, n1, n2, w1, w2, MapPacked, 4); got != want {
			t.Errorf("Charge(nil, %d, %d, %d, %d) = %d, allocated %d", n1, n2, w1, w2, got, want)
		}
	}
	if Charge(nil, 5, 5, 0, 3, MapPacked, 4) != 0 {
		t.Error("non-positive window must charge 0")
	}
}

func TestEstimatePackedHalvesBox(t *testing.T) {
	// The paper's quarter-space map stores N2(N2+1)/2 of the N2² bounding
	// box per triangle — the degradation ladder's first rung relies on the
	// packed table always being strictly smaller (for n2 > 1).
	box := Charge(nil, 30, 30, 30, 30, MapBox, 4)
	packed := Charge(nil, 30, 30, 30, 30, MapPacked, 4)
	if packed >= box {
		t.Errorf("packed %d not smaller than box %d", packed, box)
	}
	if 2*packed <= box {
		t.Errorf("packed %d should be just over half of box %d", packed, box)
	}
}

// TestFootprintsMatchAllocation pins the two substrate footprints to the
// storage they price: ProblemBytes to a problem's score tables, S tables and
// sequences, PartitionSubBytes to PartitionSub.Bytes — star table included —
// pooled or not, scaled (kT 1) or in the log domain (kT 1e-3), and with
// either strand long enough for its S tables' padded row pitch (scaled only:
// a log-domain fill of it takes seconds).
func TestFootprintsMatchAllocation(t *testing.T) {
	pl := NewPool()
	long := nussinov.SequentialCutoff + 3
	for _, c := range [][2]int{{1, 1}, {7, 13}, {12, 9}, {long, 2}, {2, long}} {
		n1, n2 := c[0], c[1]
		kTs := []float64{1, 1e-3}
		if max(n1, n2) >= nussinov.SequentialCutoff {
			kTs = kTs[:1]
		}
		for _, p := range []*Problem{newTestProblem(t, 5, n1, n2), pooledProblem(t, pl, 5, n1, n2)} {
			tab := int64(len(p.Tab.Intra1)+len(p.Tab.Intra2)+len(p.Tab.Inter)) * 4
			want := tab + p.S1.Bytes() + p.S2.Bytes() + int64(p.Seq1.Len()+p.Seq2.Len())
			if got := ProblemBytes(n1, n2); got != want {
				t.Errorf("ProblemBytes(%d, %d) = %d, problem holds %d", n1, n2, got, want)
			}
			for _, kT := range kTs {
				ps := buildTestPartitionSub(t, p, kT)
				if got, want := PartitionSubBytes(n1, n2), ps.Bytes(); got != want {
					t.Errorf("PartitionSubBytes(%d, %d) = %d, substrate holds %d (pooled %v, scaled %v)",
						n1, n2, got, want, p.pl != nil, ps.Scaled())
				}
				ps.Release()
			}
			p.Release()
		}
	}
}
