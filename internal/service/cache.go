package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheShards is the fixed shard count of the LRU cache. Sixteen shards
// keep lock contention negligible at the request rates one process serves
// while costing only sixteen list heads of overhead.
const cacheShards = 16

// Cache is a sharded LRU memo for the service's pure computations that
// cost more than a lookup (the grid searches, topology-priced predictions,
// plan points and HBL solves). Keys are strings built from the full input tuple — dims, P,
// and machine config where it matters — so a hit is exactly a repeat of an
// earlier computation and the stored value can be returned verbatim.
// GetOrCompute is safe for concurrent use; hit and miss counts are
// exported at /metrics.
type Cache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
	shared atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	// flight holds the in-progress GetOrCompute calls of this shard, so
	// concurrent misses on one key collapse to a single computation.
	flight map[string]*flightCall
}

// flightCall is one in-progress computation: the owner closes done after
// publishing val, and ok distinguishes a completed computation from one
// abandoned by a panic (waiters then compute for themselves).
type flightCall struct {
	done chan struct{}
	val  any
	ok   bool
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns a cache holding about capacity entries in total
// (capacity/16 per shard, minimum one). capacity ≤ 0 selects the default
// of 4096.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shardFor picks the shard by FNV-1a hash of the key.
func (c *Cache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%cacheShards]
}

func (s *cacheShard) putLocked(key string, val any) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.capacity {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	s.entries[key] = s.order.PushFront(&cacheEntry{key: key, val: val})
}

// GetOrCompute returns the cached value for key, computing and storing it
// on a miss. Concurrent misses on the same key collapse to one computation
// (singleflight): the first caller runs fn outside the shard lock while
// later callers wait on its result, counted under Shared() rather than as
// misses. This is what keeps a burst of identical plan or grid requests
// from multiplying the divisor-search work P-fold — the original
// duplicated-compute design was fine for microsecond memo bodies but not
// for plan points, whose OptimalUnderMemory search is the request cost.
func (c *Cache) GetOrCompute(key string, fn func() any) any {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		c.hits.Add(1)
		v := el.Value.(*cacheEntry).val
		s.mu.Unlock()
		return v
	}
	if fc, ok := s.flight[key]; ok {
		c.shared.Add(1)
		s.mu.Unlock()
		<-fc.done
		if fc.ok {
			return fc.val
		}
		// The owner panicked before publishing; compute independently.
		return c.GetOrCompute(key, fn)
	}
	c.misses.Add(1)
	fc := &flightCall{done: make(chan struct{})}
	if s.flight == nil {
		s.flight = make(map[string]*flightCall)
	}
	s.flight[key] = fc
	s.mu.Unlock()
	// The flight entry must be cleared and waiters released even if fn
	// panics — otherwise every later caller of this key would block
	// forever. The cached value is only stored on success.
	defer func() {
		s.mu.Lock()
		delete(s.flight, key)
		if fc.ok {
			s.putLocked(key, fc.val)
		}
		s.mu.Unlock()
		close(fc.done)
	}()
	fc.val = fn()
	fc.ok = true
	return fc.val
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Shared returns how many GetOrCompute calls were satisfied by waiting on
// another caller's in-flight computation instead of computing themselves —
// the work singleflight saved. It is disjoint from both hits and misses.
func (c *Cache) Shared() int64 {
	return c.shared.Load()
}
