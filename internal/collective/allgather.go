package collective

import "fmt"

// AllGather gathers equal-size blocks from every member and returns the
// concatenation in member order (every member returns the same result).
// Per-rank bandwidth is exactly (1 − 1/p)·W where W is the gathered size.
func (g *Group) AllGather(myBlock []float64) []float64 {
	out := make([]float64, len(g.members)*len(myBlock))
	return g.AllGatherVInto(myBlock, g.uniformCounts(len(g.members), len(myBlock)), out)
}

// AllGatherV is AllGather with per-member block sizes. counts[i] is the
// length of member i's contribution; len(myBlock) must equal this member's
// count.
func (g *Group) AllGatherV(myBlock []float64, counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	return g.AllGatherVInto(myBlock, counts, make([]float64, total))
}

// AllGatherVInto is AllGatherV writing the result into the caller-provided
// out, which must have length sum(counts). Ownership of out stays with the
// caller; the collective only borrows it for the duration of the call (its
// slices are serialized into pooled network buffers on send). The gather
// loops receive directly into out and send slices of it, so a steady-state
// call performs no heap allocation.
func (g *Group) AllGatherVInto(myBlock []float64, counts []int, out []float64) []float64 {
	g.countOp(mOpAllGather)
	p := len(g.members)
	if len(counts) != p {
		panic(fmt.Sprintf("collective: %d counts for group of %d", len(counts), p))
	}
	if len(myBlock) != counts[g.me] {
		panic(fmt.Sprintf("collective: block size %d but counts[%d] = %d", len(myBlock), g.me, counts[g.me]))
	}
	starts, total := g.offsets(counts)
	if len(out) != total {
		panic(fmt.Sprintf("collective: allgather out has %d words, counts sum %d", len(out), total))
	}
	copy(out[starts[g.me]:], myBlock)
	if p == 1 {
		return out
	}
	if UseRecursive(p, g.alg) {
		g.allGatherRecursive(out, starts, counts)
	} else {
		g.allGatherRing(out, starts, counts)
	}
	return out
}

// allGatherRing runs the p−1-step ring algorithm: at step s, member i
// forwards the block of member (i−s) mod p to its right neighbour and
// receives the block of member (i−s−1) mod p from its left neighbour,
// directly into its slot of out.
func (g *Group) allGatherRing(out []float64, starts, counts []int) {
	p := len(g.members)
	right := (g.me + 1) % p
	left := (g.me - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendIdx := (g.me - s + p*p) % p
		recvIdx := (g.me - s - 1 + p*p) % p
		g.send(right, opAllGather, out[starts[sendIdx]:starts[sendIdx]+counts[sendIdx]])
		got := g.recvInto(left, opAllGather, out[starts[recvIdx]:starts[recvIdx]+counts[recvIdx]])
		if got != counts[recvIdx] {
			panic(fmt.Sprintf("collective: allgather ring got %d words, want %d", got, counts[recvIdx]))
		}
	}
}

// allGatherRecursive runs the log₂(p)-step recursive-doubling algorithm
// (p must be a power of two): at step s each member exchanges its owned
// aligned 2^s member-range with the sibling range of partner me XOR 2^s,
// receiving directly into the sibling range of out.
func (g *Group) allGatherRecursive(out []float64, starts, counts []int) {
	p := len(g.members)
	for span := 1; span < p; span <<= 1 {
		partner := g.me ^ span
		// Owned member range: the aligned block of size span containing me.
		myLo := g.me &^ (span - 1)
		theirLo := partner &^ (span - 1)
		myStart := starts[myLo]
		myEnd := starts[myLo+span-1] + counts[myLo+span-1]
		theirStart := starts[theirLo]
		theirEnd := starts[theirLo+span-1] + counts[theirLo+span-1]
		got := g.sendRecvInto(partner, partner, opAllGather, out[myStart:myEnd], out[theirStart:theirEnd])
		if got != theirEnd-theirStart {
			panic(fmt.Sprintf("collective: allgather doubling got %d words, want %d", got, theirEnd-theirStart))
		}
	}
}
