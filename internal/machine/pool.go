package machine

import (
	"math/bits"
	"sync"
)

// arena recycles the simulator's hot-path allocations: message payload
// buffers, in-flight message structs, and small integer scratch slices.
// Buffers are grouped into power-of-two size classes; get returns a buffer
// with at least the requested length (contents undefined), put makes a
// buffer available for reuse. The arena only ever hands a buffer to one
// owner at a time, so the hot path — copy-on-send into a pooled buffer,
// recycle after receive — runs allocation-free once the free lists are warm.
//
// A single process-wide arena (globalArena) backs every World: worlds are
// typically short-lived (one per experiment sweep point, one per benchmark
// iteration), so per-world free lists would start cold every time and the
// pool would never amortize. Sharing is safe — ownership hand-off goes
// through the mutex, which also publishes buffer contents between
// goroutines — and the contention is negligible next to the simulation work
// between acquisitions.
type arena struct {
	mu   sync.Mutex
	free [arenaClasses][][]float64
	ints [intClasses][][]int
	msgs *message
}

// globalArena is the process-wide recycling arena shared by all Worlds.
var globalArena arena

// arenaClasses bounds the float64 size classes at 2^47 words — far beyond
// any simulated payload. intClasses bounds integer scratch at 2^31 entries.
const (
	arenaClasses = 48
	intClasses   = 32
)

// classFor returns the smallest size class whose buffers hold n words.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a buffer of length n with undefined contents. Callers must
// fully overwrite the requested prefix before reading it.
func (a *arena) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	a.mu.Lock()
	if l := a.free[c]; len(l) > 0 {
		buf := l[len(l)-1]
		a.free[c] = l[:len(l)-1]
		a.mu.Unlock()
		return buf[:n]
	}
	a.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// put recycles a buffer. Buffers whose capacity is not an exact power of
// two (e.g. slices allocated outside the arena) are filed under the largest
// class their capacity fully backs, so foreign buffers are safe to donate.
func (a *arena) put(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	c := bits.Len(uint(cap(buf))) - 1
	if c >= arenaClasses {
		return
	}
	buf = buf[: 0 : 1<<c]
	a.mu.Lock()
	a.free[c] = append(a.free[c], buf)
	a.mu.Unlock()
}

// getInts returns an integer scratch slice of length n, contents undefined.
func (a *arena) getInts(n int) []int {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	a.mu.Lock()
	if l := a.ints[c]; len(l) > 0 {
		buf := l[len(l)-1]
		a.ints[c] = l[:len(l)-1]
		a.mu.Unlock()
		return buf[:n]
	}
	a.mu.Unlock()
	return make([]int, n, 1<<c)
}

// putInts recycles an integer scratch slice.
func (a *arena) putInts(buf []int) {
	if cap(buf) == 0 {
		return
	}
	c := bits.Len(uint(cap(buf))) - 1
	if c >= intClasses {
		return
	}
	buf = buf[: 0 : 1<<c]
	a.mu.Lock()
	a.ints[c] = append(a.ints[c], buf)
	a.mu.Unlock()
}

// getMsg returns a zeroed message struct from the free list.
func (a *arena) getMsg() *message {
	a.mu.Lock()
	m := a.msgs
	if m != nil {
		a.msgs = m.next
		a.mu.Unlock()
		m.next = nil
		return m
	}
	a.mu.Unlock()
	return &message{}
}

// putMsg recycles a message struct. The payload reference is dropped so the
// pool never pins (or accidentally resurrects) a payload buffer.
func (a *arena) putMsg(m *message) {
	m.data = nil
	a.mu.Lock()
	m.next = a.msgs
	a.msgs = m
	a.mu.Unlock()
}

// GetBuffer returns a buffer of n words from the recycling arena. The
// contents are undefined: callers must fully overwrite the buffer before
// reading it. Pair with PutBuffer when the buffer is dead to keep the hot
// path allocation-free.
func (r *Rank) GetBuffer(n int) []float64 { return globalArena.get(n) }

// PutBuffer returns a buffer to the recycling arena. The caller must not
// use the slice (or any alias of it) afterwards: the arena will hand it to
// the next GetBuffer or Send on any rank.
func (r *Rank) PutBuffer(buf []float64) { globalArena.put(buf) }

// GetInts returns an integer scratch slice of length n from the recycling
// arena, contents undefined. Pair with PutInts.
func (r *Rank) GetInts(n int) []int { return globalArena.getInts(n) }

// PutInts returns an integer scratch slice to the recycling arena.
func (r *Rank) PutInts(buf []int) { globalArena.putInts(buf) }
