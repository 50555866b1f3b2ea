package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/metrics"
)

// Cache is a content-addressed LRU cache with single-flight deduplication.
//
// Entries are keyed by Key (a content hash of everything that determines the
// value), carry an explicit byte cost, and are evicted least-recently-used
// when the total retained cost exceeds the budget. Do additionally
// deduplicates concurrent identical computations: while one caller (the
// leader) computes the value for a key, other callers of the same key wait
// on the leader's result instead of repeating the work; waiters honor their
// own context while parked. Errors are never cached — a failed or cancelled
// leader wakes the waiters, and the first of them retries as the new leader.
//
// Do is the only way in: a value is retained by the leader that built it and
// by nothing else. All methods are safe for concurrent use. Do on a present
// key allocates nothing, which the public layer's zero-alloc steady-state
// contract relies on.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	entries  map[Key]*entry
	flight   map[Key]*call
	// Doubly-linked LRU list of entries; front is most recently used.
	front, back *entry
	bytes       int64

	evictions  atomic.Int64
	shared     atomic.Int64
	retainedHW metrics.HighWater
}

type entry struct {
	key        Key
	val        any
	bytes      int64
	prev, next *entry
}

// call is one in-flight computation; done is closed when val/err are set.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns a cache retaining at most maxBytes of entry cost
// (maxBytes <= 0 means unlimited).
func NewCache(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[Key]*entry),
		flight:   make(map[Key]*call),
	}
}

// retain inserts a leader's value with the given retained-byte cost, then
// evicts least-recently-used entries until the budget holds again. If the key
// is already present the existing entry is kept (the values are
// interchangeable by construction of the key). A value whose cost alone
// exceeds the budget is not retained at all.
func (c *Cache) retain(k Key, v any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return
	}
	e := &entry{key: k, val: v, bytes: bytes}
	c.entries[k] = e
	c.pushFront(e)
	c.bytes += bytes
	c.retainedHW.Update(c.bytes)
	if c.maxBytes > 0 {
		for c.bytes > c.maxBytes && c.back != nil {
			c.evict(c.back)
		}
	}
}

// Do returns the value for k, computing it with fn on a miss. Concurrent
// calls with the same key are single-flighted: one leader runs fn, the rest
// wait (respecting ctx) and share the leader's value. shared reports whether
// this call was served by another call's computation — or gave up, with
// ctx.Err(), while parked behind one; hit whether it was served by an
// already-cached entry. fn's error is returned to the leader only and is
// never cached; waiters woken by a failed leader retry.
func (c *Cache) Do(ctx context.Context, k Key, fn func() (any, int64, error)) (v any, hit, shared bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[k]; ok {
			c.moveToFront(e)
			c.mu.Unlock()
			return e.val, true, false, nil
		}
		if cl, ok := c.flight[k]; ok {
			c.mu.Unlock()
			select {
			case <-cl.done:
				if cl.err == nil {
					c.shared.Add(1)
					return cl.val, false, true, nil
				}
				// The leader failed; its error may be specific to it (a
				// cancelled context, a panic). Loop and retry as leader.
				continue
			case <-ctx.Done():
				return nil, false, true, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{})}
		c.flight[k] = cl
		c.mu.Unlock()
		v, err = c.lead(k, cl, fn)
		return v, false, false, err
	}
}

// lead runs one single-flight computation as the leader, publishing the
// outcome to waiters even if fn panics (the panic is rethrown after the
// waiters are released, so a bug cannot strand them).
func (c *Cache) lead(k Key, cl *call, fn func() (any, int64, error)) (any, error) {
	finished := false
	defer func() {
		if !finished {
			cl.err = fmt.Errorf("pipeline: in-flight computation panicked")
		}
		c.mu.Lock()
		delete(c.flight, k)
		c.mu.Unlock()
		close(cl.done)
	}()
	v, bytes, err := fn()
	finished = true
	if err != nil {
		cl.err = err
		return nil, err
	}
	cl.val = v
	c.retain(k, v, bytes)
	return v, nil
}

// RetainedBytes returns the total cost of currently retained entries.
func (c *Cache) RetainedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counters snapshots the cache-level counters: current entries and retained
// cost, the retained high-water mark, evictions, and single-flight shares.
func (c *Cache) Counters() (entries int64, bytes, bytesHW, evictions, shared int64) {
	c.mu.Lock()
	entries, bytes = int64(len(c.entries)), c.bytes
	c.mu.Unlock()
	return entries, bytes, c.retainedHW.Load(), c.evictions.Load(), c.shared.Load()
}

// evict removes e. Caller holds mu.
func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.evictions.Add(1)
}

// pushFront links e as most recently used. Caller holds mu.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

// unlink removes e from the LRU list. Caller holds mu.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks e most recently used. Caller holds mu.
func (c *Cache) moveToFront(e *entry) {
	if c.front == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
