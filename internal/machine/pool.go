package machine

import (
	"math/bits"
	"sync"
)

// The arena recycles the simulator's hot-path allocations: message payload
// buffers and in-flight message headers. Buffers are grouped into
// power-of-two size classes; get returns a buffer with at least the
// requested length (contents undefined), put makes a buffer available for
// reuse. The arena only ever hands a buffer to one owner at a time, so the
// hot path — copy-on-send into a pooled buffer, recycle after receive —
// runs allocation-free once the free lists are warm.
//
// It has two tiers. A process-wide tier (globalArena) backs every World:
// worlds are typically short-lived (one per experiment sweep point, one per
// benchmark iteration), so per-world free lists would start cold every
// time and the pool would never amortize. In front of it sit arena caches,
// one per scheduler shard of each running world: a world claims its caches
// from idleCaches when Run starts and hands them back, warm, when Run
// returns, so worlds running at once never share a cache. Every get and
// put of a rank goes to its home shard's cache, and only the holder of the
// shard's execution token can reach it, so a cache takes no lock. With the
// process-wide lock alone, every running task took that one mutex four to
// six times per message, and spinning on it cost Algorithm 1 at P = 16384
// 29% of its CPU.
//
// A cache that misses refills up to refillBatch entries of the class from
// the process-wide tier under its lock, and a put that grows a class past
// cacheBound spills the older half back. The bound keeps buffers
// circulating across shards and worlds: under one-way traffic one shard
// only gets and another only puts, and an unbounded cache would hoard
// everything the putting shard frees while the getting shard allocates
// afresh on every world. Ownership of a buffer passes between shards with
// its message, under the receiver's shard lock, and between worlds through
// the locks of idleCaches and the process-wide tier; those hand-offs also
// publish buffer contents between goroutines.

// refillBatch and cacheBound size an arena cache's traffic with the
// process-wide tier (see above).
const (
	refillBatch = 64
	cacheBound  = 256
)

// arenaClasses bounds the float64 size classes at 2^47 words — far beyond
// any simulated payload.
const arenaClasses = 48

// freeLists is one tier's free lists.
type freeLists struct {
	bufs [arenaClasses][][]float64
	msgs []*message
}

// globalArena is the process-wide tier shared by all Worlds.
var globalArena struct {
	mu sync.Mutex
	freeLists
}

// arenaCache is one shard's tier, owned by one running world at a time.
type arenaCache struct {
	freeLists
}

// idleCaches holds the arena caches no running world owns.
var idleCaches struct {
	mu   sync.Mutex
	list []*arenaCache
}

// claimCaches gives each shard a cache of its own: the most recently
// handed back, or a new one when none is idle. As returnCaches hands
// caches back last shard first, a world that follows one of the same
// width gives each shard the cache that shard just used, so traffic
// repeated across worlds fills and drains each cache the same way.
func claimCaches(shards []eventShard) {
	idleCaches.mu.Lock()
	defer idleCaches.mu.Unlock()
	for i := range shards {
		if n := len(idleCaches.list); n > 0 {
			shards[i].cache = idleCaches.list[n-1]
			idleCaches.list = idleCaches.list[:n-1]
		} else {
			shards[i].cache = new(arenaCache)
		}
	}
}

// returnCaches hands the shards' caches back to idleCaches, last shard
// first. Called once every task has finished; no shard reaches a cache
// afterwards.
func returnCaches(shards []eventShard) {
	idleCaches.mu.Lock()
	defer idleCaches.mu.Unlock()
	for i := len(shards) - 1; i >= 0; i-- {
		idleCaches.list = append(idleCaches.list, shards[i].cache)
		shards[i].cache = nil
	}
}

// pop removes the newest entry of the cache list l, first refilling up to
// refillBatch entries from the global list g when l is empty; it reports
// false when both are empty.
func pop[T any](l, g *[]T) (v T, ok bool) {
	if len(*l) == 0 {
		globalArena.mu.Lock()
		k := max(len(*g)-refillBatch, 0)
		*l = append(*l, (*g)[k:]...)
		*g = (*g)[:k]
		globalArena.mu.Unlock()
		if len(*l) == 0 {
			return v, false
		}
	}
	v = (*l)[len(*l)-1]
	*l = (*l)[:len(*l)-1]
	return v, true
}

// push appends v to the cache list l, spilling the older half to the
// global list g once l holds more than cacheBound entries.
func push[T any](l, g *[]T, v T) {
	*l = append(*l, v)
	if len(*l) > cacheBound {
		h := len(*l) / 2
		globalArena.mu.Lock()
		*g = append(*g, (*l)[:h]...)
		globalArena.mu.Unlock()
		*l = (*l)[:copy(*l, (*l)[h:])]
	}
}

// classFor returns the smallest size class whose buffers hold n words.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a buffer of length n with undefined contents. Callers must
// fully overwrite the requested prefix before reading it.
func (c *arenaCache) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	cl := classFor(n)
	buf, ok := pop(&c.bufs[cl], &globalArena.bufs[cl])
	if !ok {
		return make([]float64, n, 1<<cl)
	}
	return buf[:n]
}

// put recycles a buffer. Buffers whose capacity is not an exact power of
// two (e.g. slices allocated outside the arena) are filed under the largest
// class their capacity fully backs, so foreign buffers are safe to donate.
func (c *arenaCache) put(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	cl := bits.Len(uint(cap(buf))) - 1
	if cl >= arenaClasses {
		return
	}
	push(&c.bufs[cl], &globalArena.bufs[cl], buf[:0:1<<cl])
}

// getMsg returns a message header with no payload and no successor.
func (c *arenaCache) getMsg() *message {
	m, ok := pop(&c.msgs, &globalArena.msgs)
	if !ok {
		return &message{}
	}
	return m
}

// putMsg recycles a message header taken off its queue. The payload
// reference is dropped so the pool never pins (or accidentally resurrects)
// a payload buffer.
func (c *arenaCache) putMsg(m *message) {
	m.data = nil
	push(&c.msgs, &globalArena.msgs, m)
}

// GetBuffer returns a buffer of n words from the recycling arena. The
// contents are undefined: callers must fully overwrite the buffer before
// reading it. Pair with PutBuffer when the buffer is dead to keep the hot
// path allocation-free.
func (r *Rank) GetBuffer(n int) []float64 { return r.home.cache.get(n) }

// PutBuffer returns a buffer to the recycling arena. The caller must not
// use the slice (or any alias of it) afterwards: the arena will hand it to
// the next GetBuffer or Send on any rank.
func (r *Rank) PutBuffer(buf []float64) { r.home.cache.put(buf) }
