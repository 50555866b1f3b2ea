// Package bufpool provides size-classed recycling of the scalar buffers
// that dominate BPMax's memory traffic: the Θ(N²M²) F table, the Nussinov
// S tables, scratch accumulators and the windowed band.
//
// The paper's speedups come from keeping the double max-plus kernel
// compute-bound; at the serving layer the analogous battle is against the
// allocator and the garbage collector. A screening workload folds millions
// of sequence pairs whose table shapes repeat, so buffers are pooled in
// power-of-two size classes and handed back out zeroed — a pooled fold is
// bit-identical to a freshly allocated one.
//
// The arenas are generic over the solver's scalar types: float32 for the
// max-plus tables (Pool, the historical name) and float64 for the
// partition-function tables (PoolOf[float64]). Size classes are counted in
// elements, so a float64 class retains twice the bytes of the same-index
// float32 class; all byte accounting multiplies by the element size.
//
// Unlike sync.Pool (which the struct freelists in internal/bpmax use), the
// class arenas here retain buffers deterministically: RetainedBytes is
// exact, which is what lets WithMemoryLimit count pooled-but-retained
// storage against its budget, and Trim releases everything on demand.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/fault"
	"github.com/bpmax-go/bpmax/internal/metrics"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

const (
	// minClassBits: buffers below 1<<minClassBits elements (1 KiB of
	// float32) are not worth pooling; they are allocated directly.
	minClassBits = 8
	// maxClassBits caps the largest pooled class at 1<<maxClassBits
	// elements (4 GiB of float32); anything larger is allocated directly.
	maxClassBits = 30
	numClasses   = maxClassBits - minClassBits + 1
	// maxPerClass bounds how many idle buffers one class retains; beyond
	// it, Put drops the buffer for the garbage collector. It bounds worst
	// case retention without a Trim to maxPerClass × the working set.
	maxPerClass = 64
)

// classFor returns the class index for a requested element count, or -1
// when the request falls outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxClassBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minClassBits {
		b = minClassBits
	}
	return b - minClassBits
}

// classLen returns the buffer capacity of class c in elements.
func classLen(c int) int { return 1 << (c + minClassBits) }

// Pool is the float32 arena set — the historical name nearly every
// max-plus call site uses.
type Pool = PoolOf[float32]

// PoolOf is a set of size-classed scalar arenas. The zero value is ready
// to use. All methods are safe for concurrent use.
type PoolOf[T semiring.Scalar] struct {
	classes [numClasses]classArena[T]

	// Always-on traffic counters (one or two atomic adds per Get/Put, far
	// off the cell-fill hot path). retained mirrors the exact idle byte
	// count so reads need no lock sweep; every mutation happens while the
	// owning class lock is held, so it never drifts from the arena contents.
	gets, hits, misses atomic.Int64
	puts, drops        atomic.Int64
	retained           atomic.Int64
	retainedHW         metrics.HighWater
}

type classArena[T semiring.Scalar] struct {
	mu   sync.Mutex
	free [][]T
}

// elemBytes returns the byte size of the pool's element type.
func (p *PoolOf[T]) elemBytes() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// Get returns a zeroed buffer of length exactly n, reusing a pooled buffer
// of the enclosing size class when one is available. n <= 0 returns nil.
func (p *PoolOf[T]) Get(n int) []T {
	b, reused := p.get(n)
	if reused {
		// A reused buffer must look fresh, so pooled solves stay bit-identical.
		clear(b)
	}
	return b
}

// GetUnzeroed is Get for a caller that writes every element before it reads
// one: a reused buffer comes as its last user left it.
func (p *PoolOf[T]) GetUnzeroed(n int) []T {
	b, _ := p.get(n)
	return b
}

// get returns Get's buffer, uncleared, and whether it was reused.
func (p *PoolOf[T]) get(n int) ([]T, bool) {
	if n <= 0 {
		return nil, false
	}
	// Failpoint: a degraded arena. Error mode does not fail the caller — the
	// pool falls back to a fresh allocation (counted as a miss), which is the
	// graceful-bypass behavior chaos schedules verify; delay mode models a
	// contended arena; panic mode is a hard allocator fault.
	if ferr := fault.Hit(fault.SitePoolAcquire); ferr != nil {
		p.gets.Add(1)
		p.misses.Add(1)
		return make([]T, n), false
	}
	p.gets.Add(1)
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		return make([]T, n), false
	}
	a := &p.classes[c]
	a.mu.Lock()
	var b []T
	if k := len(a.free); k > 0 {
		b = a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
		p.retained.Add(-int64(classLen(c)) * p.elemBytes())
	}
	a.mu.Unlock()
	if b == nil {
		p.misses.Add(1)
		return make([]T, n, classLen(c)), false
	}
	p.hits.Add(1)
	return b[:n], true
}

// Put returns a buffer to its size class for reuse. Buffers whose capacity
// is not an exact class size (including those Get allocated outside the
// pooled range) are dropped silently, as are buffers arriving at a class
// already holding maxPerClass entries. Callers must not use the buffer
// after Put.
func (p *PoolOf[T]) Put(b []T) {
	if cap(b) == 0 {
		// Mirrors Get(n <= 0) returning nil without counting, so Live stays
		// an exact checked-out-buffer count.
		return
	}
	// Failpoint: error mode drops the buffer to the garbage collector
	// instead of parking it — a lossy but safe degradation (never a dirty
	// reuse), counted like any other drop.
	if ferr := fault.Hit(fault.SitePoolRelease); ferr != nil {
		p.puts.Add(1)
		p.drops.Add(1)
		return
	}
	p.puts.Add(1)
	c := classFor(cap(b))
	if c < 0 || cap(b) != classLen(c) {
		p.drops.Add(1)
		return
	}
	b = b[:cap(b)]
	a := &p.classes[c]
	a.mu.Lock()
	stored := len(a.free) < maxPerClass
	if stored {
		a.free = append(a.free, b)
		p.retainedHW.Update(p.retained.Add(int64(classLen(c)) * p.elemBytes()))
	}
	a.mu.Unlock()
	if !stored {
		p.drops.Add(1)
	}
}

// RetainedBytes returns the exact number of bytes currently parked in the
// pool's arenas (idle buffers only; buffers handed out by Get are the
// caller's to account for). WithMemoryLimit counts this retention against
// its budget.
func (p *PoolOf[T]) RetainedBytes() int64 { return p.retained.Load() }

// HeldBytesAfter returns the bytes the pool would hold once a Get(n) is
// served: current retention, plus the class-rounded request when no idle
// buffer of its class is available (reusing an idle buffer does not grow
// retention; outside the pooled range the exact request size is added).
// It is a point-in-time estimate — concurrent Get/Put can shift it — used
// by memory budgeting to charge pooled folds.
func (p *PoolOf[T]) HeldBytesAfter(n int) int64 {
	total := p.RetainedBytes()
	if n <= 0 {
		return total
	}
	c := classFor(n)
	if c < 0 {
		return total + int64(n)*p.elemBytes()
	}
	a := &p.classes[c]
	a.mu.Lock()
	idle := len(a.free)
	a.mu.Unlock()
	if idle == 0 {
		total += int64(classLen(c)) * p.elemBytes()
	}
	return total
}

// Trim releases every idle buffer to the garbage collector and returns how
// many bytes were freed.
func (p *PoolOf[T]) Trim() int64 {
	var freed int64
	for c := range p.classes {
		a := &p.classes[c]
		a.mu.Lock()
		if k := int64(len(a.free)) * int64(classLen(c)) * p.elemBytes(); k > 0 {
			freed += k
			p.retained.Add(-k)
			a.free = nil
		}
		a.mu.Unlock()
	}
	return freed
}

// Stats snapshots the arena's traffic counters and retention. Counters are
// cumulative since the pool was created; Live is the number of buffers
// currently checked out by callers.
func (p *PoolOf[T]) Stats() metrics.BufferStats {
	gets, puts := p.gets.Load(), p.puts.Load()
	return metrics.BufferStats{
		Gets:              gets,
		Hits:              p.hits.Load(),
		Misses:            p.misses.Load(),
		Puts:              puts,
		Drops:             p.drops.Load(),
		Live:              gets - puts,
		RetainedBytes:     p.retained.Load(),
		RetainedHighWater: p.retainedHW.Load(),
	}
}
