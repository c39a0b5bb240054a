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

// AllToAllVInto performs a personalized exchange: data holds one chunk per
// member, in member order, chunk i of counts[i] words for member i, and out
// receives one chunk from every member, in member order, each of
// counts[me] words, so len(out) must be p·counts[me]. Every member passes
// the same counts. The own chunk is copied locally; the pairwise-exchange
// schedule uses p−1 steps with send-to (me+s), receive-from (me−s), and
// receives straight into out, so a steady-state call allocates nothing.
func (g *Group) AllToAllVInto(data []float64, counts []int, out []float64) []float64 {
	g.countOp(mOpAllToAll)
	p := len(g.members)
	total, mine := g.layout(counts)
	n := counts[g.me]
	if len(data) != total {
		panic(fmt.Sprintf("collective: alltoall data has %d words, counts sum %d", len(data), total))
	}
	if len(out) != p*n {
		panic(fmt.Sprintf("collective: alltoall out has %d words, want %d", len(out), p*n))
	}
	copy(out[g.me*n:], data[mine:mine+n])
	// The destinations run me+1, …, p−1, 0, …, me−1, so each chunk's
	// offset in data follows from the last.
	at := mine + n
	for s := 1; s < p; s++ {
		dst := (g.me + s) % p
		src := (g.me - s + p) % p
		if dst == 0 {
			at = 0
		}
		g.send(dst, opAllToAll, data[at:at+counts[dst]])
		at += counts[dst]
		if got := g.recvInto(src, opAllToAll, out[src*n:(src+1)*n]); got != n {
			panic(fmt.Sprintf("collective: alltoall got %d words from member %d, want %d", got, src, n))
		}
	}
	return out
}
