// Package collective implements the MPI-style collective operations the
// paper's Algorithm 1 is built from — All-Gather and Reduce-Scatter — plus
// the binomial Broadcast (SUMMA, 2.5D) and pairwise All-to-All
// (AllToAll3D) the baseline algorithms add, all running over arbitrary
// subsets ("fibers") of the simulated machine's ranks.
//
// All-Gather and Reduce-Scatter come in two algorithm families, matching
// §5.1's assumption of bandwidth-optimal collectives:
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
// collectives together. Each member initializes its own Group value with
// the same member list and tag base (like an MPI communicator).
type Group struct {
	rank    *machine.Rank
	members []int
	me      int // index of rank within members
	tagBase int
	alg     Algorithm
}

// opcode offsets keep concurrent-by-construction collectives on disjoint
// tags. Within one collective call all messages use tagBase+opcode; FIFO
// per (src, dst, tag) plus SPMD program order make this unambiguous. The
// values are fixed because Chrome traces record message tags.
const (
	opAllGather     = 1
	opReduceScatter = 2
	opBcast         = 3
	opAllToAll      = 5
)

// Init initializes a Group, typically a value on the caller's stack, as
// rank r's communicator over the given global rank ids (identical order on
// every member). tagBase isolates this group's traffic from other groups
// that share rank pairs; callers give distinct bases to logically distinct
// communicators. The group reads members without copying or writing it, so
// every member of a fiber can share one list (see grid.Fibers).
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

// Release ends the group's use. A Group holds no scratch of its own, so
// there is nothing to return; callers may drop a group without it.
func (g *Group) Release() {}

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

// UseRecursive reports whether an All-Gather or Reduce-Scatter over p
// members runs the recursive algorithms (log₂ p rounds) rather than the
// ring (p − 1 rounds) under policy alg. It is the one statement of the
// rule: groups dispatch on it and the closed-form model counts rounds by
// it. Recursive with a p that is not a power of two panics, as the
// collectives would.
func UseRecursive(p int, alg Algorithm) bool {
	pow2 := p&(p-1) == 0
	switch alg {
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

// layout checks counts against the group and returns their sum, the words
// of every block together, and mine, the offset of this member's block in
// the concatenation. The collectives walk the other offsets from these as
// they go, so no call stores a table of them.
func (g *Group) layout(counts []int) (total, mine int) {
	if len(counts) != len(g.members) {
		panic(fmt.Sprintf("collective: %d counts for group of %d", len(counts), len(g.members)))
	}
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("collective: negative count %d", c))
		}
		if i == g.me {
			mine = total
		}
		total += c
	}
	return total, mine
}

// sum returns the words of the blocks counts lists.
func sum(counts []int) int {
	s := 0
	for _, c := range counts {
		s += c
	}
	return s
}

// below returns the member before idx in ring order, (idx − 1) mod p, and
// the offset of its block in the concatenation of total words, given at,
// the offset of idx's block: a ring walks its blocks this way, so it
// finds each offset from the last in O(1).
func below(counts []int, idx, at, total int) (int, int) {
	if idx == 0 {
		idx, at = len(counts), total
	}
	return idx - 1, at - counts[idx-1]
}

// equalCounts returns p copies of n: the counts of an equal-block
// collective.
func equalCounts(p, n int) []int {
	c := make([]int, p)
	for i := range c {
		c[i] = n
	}
	return c
}
