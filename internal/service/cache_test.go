package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheEvictsLRU(t *testing.T) {
	// Capacity 32 = two entries per shard. Collect three keys landing in
	// one shard and check the least recently *used* (not inserted) entry
	// is the one evicted.
	c := NewCache(32)
	shard := c.shardFor("k0")
	keys := []string{"k0"}
	for i := 1; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == shard {
			keys = append(keys, k)
		}
	}
	put := func(i int) any { return c.GetOrCompute(keys[i], func() any { return i }) }
	put(0)
	put(1)
	if put(0) != 0 { // touch keys[0]: keys[1] becomes LRU
		t.Fatal("entry missing before eviction")
	}
	put(2) // shard full: evicts keys[1]
	if _, ok := cached(c, keys[1]); ok {
		t.Fatal("LRU entry not evicted")
	}
	for _, want := range []int{0, 2} {
		if v, ok := cached(c, keys[want]); !ok || v.(int) != want {
			t.Fatalf("recently used %s evicted", keys[want])
		}
	}
}

// cached reports the entry stored under key without touching its recency
// or the hit and miss counts.
func cached(c *Cache, key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).val, true
}

func TestCacheGetOrCompute(t *testing.T) {
	c := NewCache(64)
	calls := 0
	fn := func() any { calls++; return 42 }
	if v := c.GetOrCompute("k", fn); v.(int) != 42 {
		t.Fatalf("computed %v", v)
	}
	if v := c.GetOrCompute("k", fn); v.(int) != 42 {
		t.Fatalf("cached %v", v)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheSingleflight: concurrent GetOrCompute calls on one cold key run
// the compute function exactly once; the late arrivals park on the
// in-flight call and are counted as shared, not as hits or misses.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(64)
	const waiters = 8
	release := make(chan struct{})
	var calls atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.GetOrCompute("k", func() any {
				calls.Add(1)
				<-release
				return 42
			}).(int)
		}(i)
	}
	// Hold the compute open until every other goroutine has joined the
	// flight, so the collapse is forced, not a race we might win.
	waitUntil(t, "waiters to join the flight", func() bool { return c.Shared() == waiters-1 })
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 1 || c.Shared() != waiters-1 {
		t.Fatalf("stats = %d hits, %d misses, %d shared; want 0, 1, %d",
			hits, misses, c.Shared(), waiters-1)
	}
}

// TestCacheSingleflightPanic: a compute that panics publishes nothing; the
// parked waiter retries with its own function instead of receiving a stale
// zero value or deadlocking on a never-closed flight.
func TestCacheSingleflightPanic(t *testing.T) {
	c := NewCache(64)
	gate := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrCompute("k", func() any { <-gate; panic("boom") })
	}()
	waitUntil(t, "panicking flight to register", func() bool { _, m := c.Stats(); return m == 1 })
	got := make(chan int, 1)
	go func() {
		got <- c.GetOrCompute("k", func() any { return 7 }).(int)
	}()
	waitUntil(t, "waiter to join the flight", func() bool { return c.Shared() == 1 })
	close(gate)
	if p := <-panicked; p == nil {
		t.Fatal("compute did not panic through GetOrCompute")
	}
	if v := <-got; v != 7 {
		t.Fatalf("waiter after panic got %d, want its own computation 7", v)
	}
	if v, ok := cached(c, "k"); !ok || v.(int) != 7 {
		t.Fatalf("cache after retry = %v, %v", v, ok)
	}
}

// TestCacheSingleflightPanicReleasesManyWaiters: the abandonment path with
// a full crowd — every waiter parked on a panicking flight must be
// released (fc.ok == false) and recompute for itself via the recursive
// GetOrCompute, none deadlocking on the never-published value. Run with
// -race this also proves the flight map's cleanup is synchronized.
func TestCacheSingleflightPanicReleasesManyWaiters(t *testing.T) {
	c := NewCache(64)
	const waiters = 6
	gate := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrCompute("k", func() any { <-gate; panic("boom") })
	}()
	waitUntil(t, "panicking flight to register", func() bool { _, m := c.Stats(); return m == 1 })
	got := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			got <- c.GetOrCompute("k", func() any { return 7 }).(int)
		}()
	}
	waitUntil(t, "waiters to join the flight", func() bool { return c.Shared() >= waiters })
	close(gate)
	if p := <-panicked; p == nil {
		t.Fatal("compute did not panic through GetOrCompute")
	}
	for i := 0; i < waiters; i++ {
		select {
		case v := <-got:
			if v != 7 {
				t.Fatalf("waiter got %d, want 7", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d still parked after the owner panicked", i)
		}
	}
}

// TestCacheSingleflightSurvivesEviction: waiters read the flight's
// published value, not the cache entry, so a value evicted from the LRU
// the instant it is stored (here: a capacity-starved shard flooded during
// the flight) still reaches every waiter. Run with -race.
func TestCacheSingleflightSurvivesEviction(t *testing.T) {
	c := NewCache(1) // one entry per shard: any flood evicts
	release := make(chan struct{})
	const waiters = 4
	got := make(chan int, waiters+1)
	go func() {
		got <- c.GetOrCompute("k", func() any { <-release; return 42 }).(int)
	}()
	waitUntil(t, "flight to register", func() bool { _, m := c.Stats(); return m == 1 })
	for i := 0; i < waiters; i++ {
		go func() {
			got <- c.GetOrCompute("k", func() any { return 42 }).(int)
		}()
	}
	waitUntil(t, "waiters to join the flight", func() bool { return c.Shared() == waiters })
	// Flood every shard while the flight is still open, so whichever
	// shard "k" hashes to has its (single) slot churned before and after
	// the owner publishes.
	for i := 0; i < 64; i++ {
		c.GetOrCompute(fmt.Sprintf("flood%d", i), func() any { return i })
	}
	close(release)
	for i := 0; i < waiters+1; i++ {
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("caller got %d, want 42 despite eviction", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("caller never received the in-flight value")
		}
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run with
// -race this is the shard-locking correctness test.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%200)
				v := c.GetOrCompute(k, func() any { return i % 200 })
				// Values are keyed deterministically, so any hit must
				// return the key's own value.
				if v.(int) != i%200 {
					t.Errorf("GetOrCompute(%s) = %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128+cacheShards {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}
