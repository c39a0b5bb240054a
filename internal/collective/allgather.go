package collective

import "fmt"

// AllGather gathers equal-size blocks from every member and returns the
// concatenation in member order (every member returns the same result).
// Per-rank bandwidth is exactly (1 − 1/p)·W where W is the gathered size.
func (g *Group) AllGather(myBlock []float64) []float64 {
	out := make([]float64, len(g.members)*len(myBlock))
	return g.AllGatherVInto(myBlock, equalCounts(len(g.members), len(myBlock)), out)
}

// AllGatherVInto is AllGather with per-member block sizes, writing the
// result into the caller-provided out. counts[i] is the length of member
// i's contribution; len(myBlock) must equal this member's count, and out
// must have length sum(counts). Ownership of out stays with the caller; the
// collective only borrows it for the duration of the call (its slices are
// serialized into pooled network buffers on send). myBlock may be this
// member's own slot of out, so a caller can place its block there and
// gather in place. The gather loops receive directly into out and send
// slices of it, so a steady-state call performs no heap allocation.
func (g *Group) AllGatherVInto(myBlock []float64, counts []int, out []float64) []float64 {
	g.countOp(mOpAllGather)
	p := len(g.members)
	total, mine := g.layout(counts)
	if len(myBlock) != counts[g.me] {
		panic(fmt.Sprintf("collective: block size %d but counts[%d] = %d", len(myBlock), g.me, counts[g.me]))
	}
	if len(out) != total {
		panic(fmt.Sprintf("collective: allgather out has %d words, counts sum %d", len(out), total))
	}
	copy(out[mine:], myBlock)
	if p == 1 {
		return out
	}
	if UseRecursive(p, g.alg) {
		g.allGatherRecursive(out, counts, mine)
	} else {
		g.allGatherRing(out, counts, mine)
	}
	return out
}

// allGatherRing runs the p−1-step ring algorithm: at step s, member i
// forwards the block of member (i−s) mod p to its right neighbour and
// receives the block of member (i−s−1) mod p from its left neighbour,
// directly into its slot of out. The blocks move in descending member
// order, so each offset follows from the last (see below).
func (g *Group) allGatherRing(out []float64, counts []int, mine int) {
	p := len(g.members)
	right := (g.me + 1) % p
	left := (g.me - 1 + p) % p
	sendIdx, sendAt := g.me, mine
	for s := 0; s < p-1; s++ {
		recvIdx, recvAt := below(counts, sendIdx, sendAt, len(out))
		g.send(right, opAllGather, out[sendAt:sendAt+counts[sendIdx]])
		got := g.recvInto(left, opAllGather, out[recvAt:recvAt+counts[recvIdx]])
		if got != counts[recvIdx] {
			panic(fmt.Sprintf("collective: allgather ring got %d words, want %d", got, counts[recvIdx]))
		}
		sendIdx, sendAt = recvIdx, recvAt
	}
}

// allGatherRecursive runs the log₂(p)-step recursive-doubling algorithm
// (p must be a power of two): at step s each member exchanges its owned
// aligned 2^s member-range with the sibling range of partner me XOR 2^s,
// receiving directly into the sibling range of out. The sibling range
// borders the owned one, so its words follow from the owned range's ends
// and the sibling's counts; owned and sibling then merge.
func (g *Group) allGatherRecursive(out []float64, counts []int, mine int) {
	p := len(g.members)
	myStart, myEnd := mine, mine+counts[g.me]
	for span := 1; span < p; span <<= 1 {
		partner := g.me ^ span
		theirLo := partner &^ (span - 1)
		theirWords := sum(counts[theirLo : theirLo+span])
		theirStart := myEnd
		if partner < g.me {
			theirStart = myStart - theirWords
		}
		got := g.sendRecvInto(partner, partner, opAllGather, out[myStart:myEnd], out[theirStart:theirStart+theirWords])
		if got != theirWords {
			panic(fmt.Sprintf("collective: allgather doubling got %d words, want %d", got, theirWords))
		}
		myStart, myEnd = min(myStart, theirStart), max(myEnd, theirStart+theirWords)
	}
}
