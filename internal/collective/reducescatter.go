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
	return g.ReduceScatterV(data, g.uniformCounts(p, len(data)/p))
}

// ReduceScatterV is ReduceScatter with per-member chunk sizes: every member
// supplies a full vector of length sum(counts); member i returns the summed
// chunk of length counts[i]. Per-rank bandwidth is exactly (1 − 1/p)·W for
// balanced chunks (W − counts[me] in general) with the ring algorithm.
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
// accumulation copy (its prior contents are ignored), so data itself is
// never mutated. Incoming chunks land in pooled network buffers that are
// recycled immediately, keeping the per-step heap allocation at zero.
func (g *Group) ReduceScatterVInto(data []float64, counts []int, out, scratch []float64) []float64 {
	g.countOp(mOpReduceScatter)
	p := len(g.members)
	if len(counts) != p {
		panic(fmt.Sprintf("collective: %d counts for group of %d", len(counts), p))
	}
	starts, total := g.offsets(counts)
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
		g.reduceScatterHalving(buf, starts, counts)
	} else {
		g.reduceScatterRing(buf, starts, counts)
	}
	copy(out, buf[starts[g.me]:starts[g.me]+counts[g.me]])
	return out
}

// reduceScatterRing runs the p−1-step ring algorithm: accumulated chunk j
// travels j+1 → j+2 → … → j, gaining each member's contribution, so at
// step s member i sends chunk (i−s−1) mod p and receives chunk
// (i−s−2) mod p, which it accumulates. The final chunk of member g.me is
// left in place in buf.
func (g *Group) reduceScatterRing(buf []float64, starts, counts []int) {
	p := len(g.members)
	right := (g.me + 1) % p
	left := (g.me - 1 + p) % p
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	tmp := g.rank.GetBuffer(maxCount)
	for s := 0; s < p-1; s++ {
		sendIdx := (g.me - s - 1 + p*p) % p
		recvIdx := (g.me - s - 2 + p*p) % p
		g.send(right, opReduceScatter, buf[starts[sendIdx]:starts[sendIdx]+counts[sendIdx]])
		got := g.recvInto(left, opReduceScatter, tmp)
		if got != counts[recvIdx] {
			panic(fmt.Sprintf("collective: reduce-scatter ring got %d words, want %d", got, counts[recvIdx]))
		}
		chunk := buf[starts[recvIdx] : starts[recvIdx]+counts[recvIdx]]
		for i, v := range tmp[:got] {
			chunk[i] += v
		}
		g.rank.Compute(float64(got))
	}
	g.rank.PutBuffer(tmp)
}

// reduceScatterHalving runs the log₂(p)-step recursive-halving algorithm
// (p must be a power of two): each step exchanges the half of the active
// member range not containing me with a partner at that distance,
// accumulating the received half. The final chunk of member g.me is left
// in place in buf.
func (g *Group) reduceScatterHalving(buf []float64, starts, counts []int) {
	p := len(g.members)
	tmp := g.rank.GetBuffer(len(buf))
	lo, size := 0, p
	for size > 1 {
		half := size / 2
		mid := lo + half
		var partner int
		var keepLo, keepHi, giveLo, giveHi int // member-index ranges
		if g.me < mid {
			partner = g.me + half
			keepLo, keepHi = lo, mid
			giveLo, giveHi = mid, lo+size
		} else {
			partner = g.me - half
			keepLo, keepHi = mid, lo+size
			giveLo, giveHi = lo, mid
		}
		giveStart := starts[giveLo]
		giveEnd := starts[giveHi-1] + counts[giveHi-1]
		keepStart := starts[keepLo]
		keepEnd := starts[keepHi-1] + counts[keepHi-1]
		got := g.sendRecvInto(partner, partner, opReduceScatter, buf[giveStart:giveEnd], tmp)
		if got != keepEnd-keepStart {
			panic(fmt.Sprintf("collective: reduce-scatter halving got %d words, want %d", got, keepEnd-keepStart))
		}
		keep := buf[keepStart:keepEnd]
		for i, v := range tmp[:got] {
			keep[i] += v
		}
		g.rank.Compute(float64(got))
		lo, size = keepLo, half
	}
	g.rank.PutBuffer(tmp)
}
