package collective

import "fmt"

// Bcast broadcasts data from the member with group index root to all
// members using a binomial tree (log₂(p) rounds). Every member returns the
// broadcast vector; non-root callers pass nil.
func (g *Group) Bcast(data []float64, root int) []float64 {
	g.countOp(mOpBcast)
	p := len(g.members)
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: Bcast root %d of %d", root, p))
	}
	if p == 1 {
		return data
	}
	// Virtual ranks place the root at 0.
	vrank := (g.me - root + p) % p
	// Receive phase: find the lowest set bit window in which we receive.
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := ((vrank - mask) + root) % p
			data = g.recv(src, opBcast)
			break
		}
		mask <<= 1
	}
	// Send phase: forward to children at decreasing distances.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			dst := ((vrank + mask) + root) % p
			g.send(dst, opBcast, data)
		}
		mask >>= 1
	}
	return data
}

// AllToAll performs a personalized exchange: blocks[i] is sent to member i,
// and the returned slice holds, per member index, the block received from
// that member. Own block is passed through locally. The pairwise-exchange
// schedule uses p−1 steps with send-to (me+s), receive-from (me−s).
func (g *Group) AllToAll(blocks [][]float64) [][]float64 {
	g.countOp(mOpAllToAll)
	p := len(g.members)
	if len(blocks) != p {
		panic(fmt.Sprintf("collective: AllToAll got %d blocks for group of %d", len(blocks), p))
	}
	out := make([][]float64, p)
	own := make([]float64, len(blocks[g.me]))
	copy(own, blocks[g.me])
	out[g.me] = own
	for s := 1; s < p; s++ {
		dst := (g.me + s) % p
		src := (g.me - s + p) % p
		out[src] = g.sendRecv(dst, src, opAllToAll, blocks[dst])
	}
	return out
}
