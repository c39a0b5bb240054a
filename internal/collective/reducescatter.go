package collective

import "fmt"

// ReduceScatter reduces (sums) a vector contributed by every member and
// scatters the result in equal chunks: member i returns the i'th chunk of
// the element-wise sum. len(data) must be divisible by the group size.
func (g *Group) ReduceScatter(data []float64) []float64 {
	p := len(g.members)
	if len(data)%p != 0 {
		panic(fmt.Sprintf("collective: ReduceScatter length %d not divisible by %d", len(data), p))
	}
	return g.ReduceScatterV(data, equalCounts(p, len(data)/p))
}

// ReduceScatterV is ReduceScatter with per-member chunk sizes: every member
// supplies a full vector of length W = sum(counts); member i returns the
// summed chunk of length counts[i]. Per rank, the ring receives every
// chunk but that of member (me−1) mod p, whose accumulation starts at this
// member: W − counts[(me−1) mod p] words, (1 − 1/p)·W for equal chunks.
// Recursive halving receives, at each step, the half of the active range
// the member keeps: the same (1 − 1/p)·W for equal chunks, but in general
// a sum that depends on where the unequal chunks fall.
func (g *Group) ReduceScatterV(data []float64, counts []int) []float64 {
	if len(counts) != len(g.members) {
		panic(fmt.Sprintf("collective: %d counts for group of %d", len(counts), len(g.members)))
	}
	out := make([]float64, counts[g.me])
	scratch := g.rank.GetBuffer(len(data))
	g.ReduceScatterVInto(data, counts, out, scratch)
	g.rank.PutBuffer(scratch)
	return out
}

// ReduceScatterVInto is ReduceScatterV writing this member's summed chunk
// into the caller-provided out, whose length must be this member's count.
// scratch must hold at least len(data) words; it is the in-place
// accumulation copy (its prior contents are ignored). When scratch is a
// separate buffer, data itself is never mutated; a caller done with data
// may pass data as scratch, and then the reduction runs in data, leaving
// it partly summed. Each incoming chunk is added straight from its pooled
// network buffer, which goes back to the arena at once, keeping the
// per-step heap allocation at zero.
func (g *Group) ReduceScatterVInto(data []float64, counts []int, out, scratch []float64) []float64 {
	g.countOp(mOpReduceScatter)
	p := len(g.members)
	total, mine := g.layout(counts)
	if len(data) != total {
		panic(fmt.Sprintf("collective: ReduceScatterV data length %d, counts sum %d", len(data), total))
	}
	if len(out) != counts[g.me] {
		panic(fmt.Sprintf("collective: ReduceScatterV out has %d words, counts[%d] = %d", len(out), g.me, counts[g.me]))
	}
	if len(scratch) < total {
		panic(fmt.Sprintf("collective: ReduceScatterV scratch holds %d words, need %d", len(scratch), total))
	}
	if p == 1 {
		copy(out, data)
		return out
	}
	// Work on a copy: the reduction accumulates in place.
	buf := scratch[:total]
	copy(buf, data)
	if UseRecursive(p, g.alg) {
		g.reduceScatterHalving(buf, counts)
	} else {
		g.reduceScatterRing(buf, counts, mine)
	}
	copy(out, buf[mine:mine+counts[g.me]])
	return out
}

// reduceScatterRing runs the p−1-step ring algorithm: accumulated chunk j
// travels j+1 → j+2 → … → j, gaining each member's contribution, so at
// step s member i sends chunk (i−s−1) mod p and receives chunk
// (i−s−2) mod p, which it accumulates. The chunks move in descending
// member order, so each offset follows from the last (see below). The
// final chunk of member g.me is left in place in buf.
func (g *Group) reduceScatterRing(buf []float64, counts []int, mine int) {
	p := len(g.members)
	right := (g.me + 1) % p
	left := (g.me - 1 + p) % p
	sendIdx, sendAt := below(counts, g.me, mine, len(buf))
	for s := 0; s < p-1; s++ {
		recvIdx, recvAt := below(counts, sendIdx, sendAt, len(buf))
		g.send(right, opReduceScatter, buf[sendAt:sendAt+counts[sendIdx]])
		g.addRecv(left, buf[recvAt:recvAt+counts[recvIdx]])
		sendIdx, sendAt = recvIdx, recvAt
	}
}

// reduceScatterHalving runs the log₂(p)-step recursive-halving algorithm
// (p must be a power of two): each step exchanges the half of the active
// member range not containing me with a partner at that distance,
// accumulating the received half. The active range's words are tracked
// as it halves, so each step sums the counts of only its lower half. The
// final chunk of member g.me is left in place in buf.
func (g *Group) reduceScatterHalving(buf []float64, counts []int) {
	lo, size := 0, len(g.members)
	loAt, hiAt := 0, len(buf)
	for size > 1 {
		half := size / 2
		mid := lo + half
		midAt := loAt + sum(counts[lo:mid])
		partner := g.me + half
		keepAt, keepEnd, giveAt, giveEnd := loAt, midAt, midAt, hiAt
		if g.me >= mid {
			partner = g.me - half
			keepAt, keepEnd, giveAt, giveEnd = midAt, hiAt, loAt, midAt
			lo = mid
		}
		g.send(partner, opReduceScatter, buf[giveAt:giveEnd])
		g.addRecv(partner, buf[keepAt:keepEnd])
		loAt, hiAt, size = keepAt, keepEnd, half
	}
}

// addRecv receives the next Reduce-Scatter message from member peerIdx,
// whose length must equal dst's, and adds it into dst straight from its
// pooled network buffer, which then goes back to the arena.
func (g *Group) addRecv(peerIdx int, dst []float64) {
	got := g.recv(peerIdx, opReduceScatter)
	if len(got) != len(dst) {
		panic(fmt.Sprintf("collective: reduce-scatter got %d words, want %d", len(got), len(dst)))
	}
	for i, v := range got {
		dst[i] += v
	}
	g.rank.Compute(float64(len(got)))
	g.rank.PutBuffer(got)
}
