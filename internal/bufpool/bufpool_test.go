package bufpool

import (
	"sync"
	"testing"
)

func TestGetReturnsZeroedExactLength(t *testing.T) {
	var p Pool
	b := p.Get(300)
	if len(b) != 300 || cap(b) != 512 {
		t.Fatalf("len %d cap %d, want 300/512", len(b), cap(b))
	}
	for i := range b {
		b[i] = float32(i + 1)
	}
	p.Put(b)
	// A smaller request from the same class must come back zeroed over its
	// whole visible length.
	c := p.Get(290)
	if len(c) != 290 {
		t.Fatalf("len %d, want 290", len(c))
	}
	for i, v := range c {
		if v != 0 {
			t.Fatalf("reused buffer not re-zeroed at %d: %v", i, v)
		}
	}
}

func TestReuseSameBacking(t *testing.T) {
	var p Pool
	b := p.Get(1000)
	p.Put(b)
	c := p.Get(900)
	if &b[0] != &c[0] {
		t.Error("Get after Put did not reuse the pooled buffer")
	}
}

func TestRetainedBytesExact(t *testing.T) {
	var p Pool
	if p.RetainedBytes() != 0 {
		t.Fatal("fresh pool retains bytes")
	}
	a := p.Get(1 << 10)
	b := p.Get(1 << 12)
	p.Put(a)
	if got, want := p.RetainedBytes(), int64(1<<10)*4; got != want {
		t.Errorf("after one Put: retained %d, want %d", got, want)
	}
	p.Put(b)
	if got, want := p.RetainedBytes(), int64(1<<10+1<<12)*4; got != want {
		t.Errorf("after two Puts: retained %d, want %d", got, want)
	}
	_ = p.Get(1 << 10)
	if got, want := p.RetainedBytes(), int64(1<<12)*4; got != want {
		t.Errorf("after re-Get: retained %d, want %d", got, want)
	}
	if freed := p.Trim(); freed != int64(1<<12)*4 {
		t.Errorf("Trim freed %d", freed)
	}
	if p.RetainedBytes() != 0 {
		t.Error("retained bytes nonzero after Trim")
	}
}

func TestPutRejectsForeignBuffers(t *testing.T) {
	var p Pool
	p.Put(make([]float32, 300)) // cap 300 is not a class size
	if p.RetainedBytes() != 0 {
		t.Error("pool accepted a non-class buffer")
	}
	p.Put(nil)
	if p.RetainedBytes() != 0 {
		t.Error("pool accepted nil")
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	n := (1 << 30) + 1
	// Just check the bookkeeping path, not a 4 GiB allocation: classFor
	// must reject it.
	if classFor(n) != -1 {
		t.Fatal("oversize request got a class")
	}
	if classFor(0) != -1 || classFor(-1) != -1 {
		t.Fatal("degenerate requests got a class")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.Get(512 + i)
				for j := range b {
					b[j] = 1
				}
				p.Put(b)
			}
		}()
	}
	wg.Wait()
	if got := p.Get(600); len(got) != 600 {
		t.Fatalf("len %d", len(got))
	}
}
