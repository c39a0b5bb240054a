// Package collective implements the MPI-style collective operations the
// paper's Algorithm 1 is built from — All-Gather and Reduce-Scatter — plus
// the supporting collectives (Broadcast, Reduce, All-Reduce, All-to-All,
// Gather, Scatter) used by the baseline algorithms, all running over
// arbitrary subsets ("fibers") of the simulated machine's ranks.
//
// Two algorithm families are provided, matching §5.1's assumption of
// bandwidth-optimal collectives:
//
//   - Ring algorithms: p−1 steps, per-rank bandwidth exactly (1 − 1/p)·w
//     for any group size and variable block sizes.
//   - Recursive doubling (All-Gather) and recursive halving
//     (Reduce-Scatter) — the "bidirectional exchange" algorithms of
//     Thakur et al. 2005 and Chan et al. 2007 — log₂(p) steps with the
//     same (1 − 1/p)·w bandwidth, used when the group size is a power of
//     two.
//
// Per-rank received words for both families equal the textbook collective
// cost, which the tests assert exactly; this is what makes the simulated
// Algorithm 1 meet Theorem 3's bound word-for-word.
package collective

import (
	"fmt"

	"repro/internal/machine"
)

// Algorithm selects the collective implementation family.
type Algorithm int

const (
	// Auto uses recursive doubling/halving for power-of-two group sizes
	// and ring algorithms otherwise.
	Auto Algorithm = iota
	// Ring forces the ring algorithms.
	Ring
	// Recursive forces recursive doubling/halving (panics if the group
	// size is not a power of two).
	Recursive
)

// Group is a communicator: an ordered set of machine ranks participating in
// collectives together. Each member constructs its own Group value with the
// same member list and tag base (like an MPI communicator).
type Group struct {
	rank    *machine.Rank
	members []int
	me      int // index of rank within members
	tagBase int
	alg     Algorithm

	// starts and counts are reusable integer scratch for the offset and
	// uniform-count computations, so repeated collectives on one group do
	// not allocate. A Group is confined to its rank's goroutine, and the
	// scratch is only live within a single collective call (collectives
	// that compose — AllReduce, BcastLong — are done with it before the
	// inner call starts), so a single buffer per kind suffices. The slices
	// come from the machine's integer arena and go back on Release.
	starts []int
	counts []int
}

// opcode offsets keep concurrent-by-construction collectives on disjoint
// tags. Within one collective call all messages use tagBase+opcode; FIFO
// per (src, dst, tag) plus SPMD program order make this unambiguous.
const (
	opAllGather = iota + 1
	opReduceScatter
	opBcast
	opReduce
	opAllToAll
	opGather
	opScatter
)

// NewGroup creates the communicator for rank r over the given global rank
// ids (identical order on every member). tagBase isolates this group's
// traffic from other groups that share rank pairs; callers give distinct
// bases to logically distinct communicators.
func NewGroup(r *machine.Rank, members []int, tagBase int, alg Algorithm) *Group {
	g := &Group{}
	g.Init(r, members, tagBase, alg)
	return g
}

// Init initializes a (possibly stack-allocated) Group in place, with the
// same semantics as NewGroup. Callers on the simulator's hot path use a
// Group value plus Init/Release to keep communicator setup allocation-free.
func (g *Group) Init(r *machine.Rank, members []int, tagBase int, alg Algorithm) {
	me := -1
	// A strictly ascending list has no duplicates; fibers always are one,
	// so the duplicate scan runs only for other orders.
	ascending := true
	for i, m := range members {
		if m < 0 || m >= r.P() {
			panic(fmt.Sprintf("collective: member %d out of range", m))
		}
		if m == r.ID() {
			me = i
		}
		if i > 0 && m <= members[i-1] {
			ascending = false
		}
	}
	if !ascending && dupMember(members) {
		panic(fmt.Sprintf("collective: duplicate member in %v", members))
	}
	if me < 0 {
		panic(fmt.Sprintf("collective: rank %d not in group %v", r.ID(), members))
	}
	*g = Group{rank: r, members: members, me: me, tagBase: tagBase, alg: alg}
}

// Release returns the group's pooled scratch to the machine's arena. The
// group must not be used afterwards. Optional: a group that is never
// released just lets the garbage collector reclaim its scratch.
func (g *Group) Release() {
	if g.starts != nil {
		g.rank.PutInts(g.starts)
		g.starts = nil
	}
	if g.counts != nil {
		g.rank.PutInts(g.counts)
		g.counts = nil
	}
}

// dupMember reports whether members contains a duplicate: an allocation-free
// quadratic scan for small groups, a map for large ones.
func dupMember(members []int) bool {
	if len(members) <= 64 {
		for i, m := range members {
			for _, n := range members[:i] {
				if n == m {
					return true
				}
			}
		}
		return false
	}
	seen := make(map[int]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return true
		}
		seen[m] = true
	}
	return false
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.members) }

// Index returns this rank's position within the group.
func (g *Group) Index() int { return g.me }

// Members returns the global rank ids of the group.
func (g *Group) Members() []int { return g.members }

// tag builds the message tag for an opcode within this group.
func (g *Group) tag(op int) int { return g.tagBase*64 + op }

// send/recv address peers by group index.
func (g *Group) send(peerIdx, op int, data []float64) {
	g.rank.Send(g.members[peerIdx], g.tag(op), data)
}

func (g *Group) recv(peerIdx, op int) []float64 {
	return g.rank.Recv(g.members[peerIdx], g.tag(op))
}

// recvInto receives into a caller-owned buffer, recycling the in-flight
// message buffer; it returns the received word count.
func (g *Group) recvInto(peerIdx, op int, dst []float64) int {
	return g.rank.RecvInto(g.members[peerIdx], g.tag(op), dst)
}

func (g *Group) sendRecv(dstIdx, srcIdx, op int, data []float64) []float64 {
	g.send(dstIdx, op, data)
	return g.recv(srcIdx, op)
}

// sendRecvInto is sendRecv receiving into dst (data and dst may alias; the
// send serializes first).
func (g *Group) sendRecvInto(dstIdx, srcIdx, op int, data, dst []float64) int {
	g.send(dstIdx, op, data)
	return g.recvInto(srcIdx, op, dst)
}

// useRecursive reports whether the recursive algorithms should run for this
// group under the configured Algorithm policy.
func (g *Group) useRecursive() bool {
	p := len(g.members)
	pow2 := p&(p-1) == 0
	switch g.alg {
	case Ring:
		return false
	case Recursive:
		if !pow2 {
			panic(fmt.Sprintf("collective: Recursive algorithms need power-of-two group, got %d", p))
		}
		return true
	default:
		return pow2
	}
}

// offsets converts per-member counts into start offsets plus total, using
// the group's reusable scratch. The returned slice is only valid until the
// next offsets call on this group.
func (g *Group) offsets(counts []int) (starts []int, total int) {
	starts = g.ensureInts(&g.starts, len(counts))
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("collective: negative count %d", c))
		}
		starts[i] = total
		total += c
	}
	return starts, total
}

// uniformCounts returns a counts slice of p copies of n in the group's
// reusable scratch; valid until the next uniformCounts call on this group.
func (g *Group) uniformCounts(p, n int) []int {
	c := g.ensureInts(&g.counts, p)
	for i := range c {
		c[i] = n
	}
	return c
}

// ensureInts resizes *buf to length n, reusing its backing array when it is
// large enough and drawing replacements from the machine's integer arena.
func (g *Group) ensureInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		if *buf != nil {
			g.rank.PutInts(*buf)
		}
		*buf = g.rank.GetInts(n)
	}
	*buf = (*buf)[:n]
	return *buf
}
