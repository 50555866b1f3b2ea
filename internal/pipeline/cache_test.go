package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// get probes k through Do, the cache's one entry point: a lookup that
// retains nothing on a miss (its build fails) and, like any hit, marks a
// present entry most recently used.
func get(c *Cache, k Key) (any, bool) {
	v, hit, _, _ := c.Do(context.Background(), k, func() (any, int64, error) {
		return nil, 0, errors.New("probe")
	})
	return v, hit
}

// add leads a build of k that yields v at the given retained cost.
func add(c *Cache, k Key, v any, bytes int64) {
	c.Do(context.Background(), k, func() (any, int64, error) { return v, bytes, nil })
}

func TestCacheGetAdd(t *testing.T) {
	c := NewCache(0)
	if _, ok := get(c, key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	add(c, key(1), "one", 10)
	v, ok := get(c, key(1))
	if !ok || v.(string) != "one" {
		t.Fatalf("Get = %v, %v; want one, true", v, ok)
	}
	if got := c.RetainedBytes(); got != 10 {
		t.Fatalf("RetainedBytes = %d, want 10", got)
	}
	// Duplicate insert keeps the existing entry and does not double-charge.
	add(c, key(1), "other", 99)
	v, _ = get(c, key(1))
	if v.(string) != "one" {
		t.Fatalf("duplicate Add replaced entry: got %v", v)
	}
	if got := c.RetainedBytes(); got != 10 {
		t.Fatalf("RetainedBytes after duplicate Add = %d, want 10", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(30)
	add(c, key(1), 1, 10)
	add(c, key(2), 2, 10)
	add(c, key(3), 3, 10)
	// Touch 1 so 2 is now the least recently used.
	get(c, key(1))
	add(c, key(4), 4, 10)
	if _, ok := get(c, key(2)); ok {
		t.Fatal("key 2 should have been evicted (LRU)")
	}
	for _, b := range []byte{1, 3, 4} {
		if _, ok := get(c, key(b)); !ok {
			t.Fatalf("key %d evicted, want retained", b)
		}
	}
	if got := c.RetainedBytes(); got != 30 {
		t.Fatalf("RetainedBytes = %d, want 30", got)
	}
	entries, bytes, bytesHW, evictions, _ := c.Counters()
	if entries != 3 || bytes != 30 || evictions != 1 {
		t.Fatalf("Counters = entries %d bytes %d evictions %d; want 3, 30, 1", entries, bytes, evictions)
	}
	if bytesHW != 40 {
		t.Fatalf("retained high-water = %d, want 40", bytesHW)
	}
}

func TestCacheEvictionCascade(t *testing.T) {
	c := NewCache(25)
	add(c, key(1), 1, 10)
	add(c, key(2), 2, 10)
	// A 20-byte entry forces both 10-byte entries out.
	add(c, key(3), 3, 20)
	if _, ok := get(c, key(1)); ok {
		t.Fatal("key 1 retained, want evicted")
	}
	if _, ok := get(c, key(2)); ok {
		t.Fatal("key 2 retained, want evicted")
	}
	if _, ok := get(c, key(3)); !ok {
		t.Fatal("key 3 evicted, want retained")
	}
	// An entry over the whole budget is not retained at all.
	add(c, key(4), 4, 100)
	if _, ok := get(c, key(4)); ok {
		t.Fatal("over-budget entry retained")
	}
	if got := c.RetainedBytes(); got != 0 {
		t.Fatalf("RetainedBytes = %d, want 0", got)
	}
}

func TestCacheDoSingleFlight(t *testing.T) {
	c := NewCache(0)
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	var hits, shares, leads atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, shared, err := c.Do(context.Background(), key(7), func() (any, int64, error) {
				calls.Add(1)
				<-gate
				return "value", 8, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if v.(string) != "value" {
				t.Errorf("Do = %v, want value", v)
			}
			switch {
			case hit:
				hits.Add(1)
			case shared:
				shares.Add(1)
			default:
				leads.Add(1)
			}
		}()
	}
	// Let the goroutines pile up behind the leader, then release it.
	for calls.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1 (single-flight)", got)
	}
	if leads.Load() != 1 {
		t.Fatalf("leads = %d, want 1", leads.Load())
	}
	if hits.Load()+shares.Load() != n-1 {
		t.Fatalf("hits %d + shares %d != %d", hits.Load(), shares.Load(), n-1)
	}
	// A later call is a plain hit.
	_, hit, _, err := c.Do(context.Background(), key(7), func() (any, int64, error) {
		t.Error("fn ran on cached key")
		return nil, 0, nil
	})
	if err != nil || !hit {
		t.Fatalf("post-flight Do: hit=%v err=%v, want true, nil", hit, err)
	}
}

func TestCacheDoLeaderErrorNotCached(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	_, _, _, err := c.Do(context.Background(), key(9), func() (any, int64, error) {
		return nil, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	// The error was not cached: the next call recomputes and succeeds.
	v, hit, shared, err := c.Do(context.Background(), key(9), func() (any, int64, error) {
		return 42, 4, nil
	})
	if err != nil || hit || shared || v.(int) != 42 {
		t.Fatalf("retry Do = %v hit=%v shared=%v err=%v; want 42, false, false, nil", v, hit, shared, err)
	}
}

func TestCacheDoWaiterRetriesAfterLeaderError(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	var failOnce sync.Once
	var calls atomic.Int64
	fn := func() (any, int64, error) {
		calls.Add(1)
		var failed bool
		failOnce.Do(func() {
			close(started)
			<-release
			failed = true
		})
		if failed {
			return nil, 0, boom
		}
		return "ok", 2, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	leaderErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, _, _, err := c.Do(context.Background(), key(3), fn)
		leaderErr <- err
	}()
	<-started
	// The waiter parks behind the failing leader, then retries as the new
	// leader and succeeds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, _, err := c.Do(context.Background(), key(3), fn)
		if err != nil {
			t.Errorf("waiter Do: %v", err)
			return
		}
		if hit {
			t.Error("waiter reported hit; leader had failed")
		}
		if v.(string) != "ok" {
			t.Errorf("waiter Do = %v, want ok", v)
		}
	}()
	close(release)
	wg.Wait()
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader Do = %v, want boom", err)
	}
	<-done
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2 (failed leader + retrying waiter)", got)
	}
}

func TestCacheDoWaiterHonorsContext(t *testing.T) {
	c := NewCache(0)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key(5), func() (any, int64, error) {
			close(started)
			<-release
			return "late", 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, shared, err := c.Do(ctx, key(5), func() (any, int64, error) {
		t.Error("cancelled waiter ran fn")
		return nil, 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if hit || !shared {
		t.Errorf("hit %v shared %v; a waiter that gave up was parked behind the leader (shared), not served", hit, shared)
	}
	close(release)
}

func TestCacheDoPanicReleasesWaiters(t *testing.T) {
	c := NewCache(0)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), key(6), func() (any, int64, error) {
			close(started)
			<-release
			panic("kernel bug")
		})
	}()
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The waiter must not be stranded: the panicking leader publishes an
		// error, and the waiter retries as leader and succeeds.
		v, _, _, err := c.Do(context.Background(), key(6), func() (any, int64, error) {
			return "recovered", 1, nil
		})
		if err != nil || v.(string) != "recovered" {
			t.Errorf("waiter after panic: v=%v err=%v", v, err)
		}
	}()
	close(release)
	<-done
}

func TestCacheConcurrentMixed(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(byte(i % 16))
				switch i % 3 {
				case 0:
					add(c, k, i, 8)
				case 1:
					get(c, k)
				default:
					c.Do(context.Background(), k, func() (any, int64, error) {
						return i, 8, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.RetainedBytes(); got > 64 {
		t.Fatalf("RetainedBytes = %d, want <= 64", got)
	}
}

// TestCacheDoPersistentlyFailingLeader: when every leader fails, each
// waiter must retry as leader exactly once (no livelock, no leader-error
// fan-out) and the error must never be cached.
func TestCacheDoPersistentlyFailingLeader(t *testing.T) {
	c := NewCache(0)
	wantErr := errors.New("leader down")
	var leaders atomic.Int64
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, err := c.Do(context.Background(), key(9), func() (any, int64, error) {
				leaders.Add(1)
				return nil, 0, wantErr
			})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Errorf("caller %d: err = %v, want leader error", i, err)
		}
	}
	// Each caller led exactly once: no retries beyond retry-as-leader, no
	// caller starved behind another's failure.
	if got := leaders.Load(); got != n {
		t.Errorf("leader ran %d times for %d callers, want %d", got, n, n)
	}
	// The failure was never cached: a succeeding leader serves immediately.
	v, hit, shared, err := c.Do(context.Background(), key(9), func() (any, int64, error) {
		return "ok", 2, nil
	})
	if err != nil || hit || shared || v.(string) != "ok" {
		t.Errorf("post-failure Do = %v, hit %v, shared %v, err %v", v, hit, shared, err)
	}
	if _, ok := get(c, key(9)); !ok {
		t.Error("successful leader result not cached")
	}
}
