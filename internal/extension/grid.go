package extension

import (
	"fmt"
	"math"
)

// Grid is a d-dimensional processor grid; Dims[j] partitions iteration
// dimension j.
type Grid struct {
	Dims []int
}

// Size returns the number of processors Π Dims[j].
func (g Grid) Size() int {
	s := 1
	for _, p := range g.Dims {
		s *= p
	}
	return s
}

// String renders the grid as "p0xp1x…".
func (g Grid) String() string {
	s := ""
	for i, p := range g.Dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprintf("%d", p)
	}
	return s
}

// Rank linearizes coordinates (last dimension fastest).
func (g Grid) Rank(coords []int) int {
	if len(coords) != len(g.Dims) {
		panic(fmt.Sprintf("extension: %d coords for %d-d grid", len(coords), len(g.Dims)))
	}
	r := 0
	for i, c := range coords {
		if c < 0 || c >= g.Dims[i] {
			panic(fmt.Sprintf("extension: coord %d out of range for %v", c, g))
		}
		r = r*g.Dims[i] + c
	}
	return r
}

// coordsOf writes the coordinates of rank into c and returns it, inverting
// Rank.
func (g Grid) coordsOf(rank int, c []int) []int {
	for i := len(g.Dims) - 1; i >= 0; i-- {
		c[i] = rank % g.Dims[i]
		rank /= g.Dims[i]
	}
	return c
}

// fiberOf writes into members, which holds Dims[axis] entries, the ranks
// whose coordinates equal coords except along axis, in increasing
// coordinate order, and returns it: the communicator for array axis's
// collective.
func (g Grid) fiberOf(coords []int, axis int, members []int) []int {
	stride := 1
	for _, p := range g.Dims[axis+1:] {
		stride *= p
	}
	at := g.Rank(coords) - coords[axis]*stride
	for v := range members {
		members[v] = at + v*stride
	}
	return members
}

// CommCost generalizes eq. (3): the per-processor communication of the
// All-Gather/Reduce-Scatter algorithm on this grid,
// Σ_j (array j block size) − TotalWords/P, where array j's gathered block
// has Π_{i≠j} N_i/p_i words.
func CommCost(pr Problem, g Grid) float64 {
	if len(g.Dims) != pr.D() {
		panic(fmt.Sprintf("extension: %d-d grid for %d-d problem", len(g.Dims), pr.D()))
	}
	total := 0.0
	for j := range pr.N {
		blk := 1.0
		for i := range pr.N {
			if i != j {
				blk *= float64(pr.N[i]) / float64(g.Dims[i])
			}
		}
		total += blk
	}
	return total - pr.TotalWords()/float64(g.Size())
}

// Optimal exhaustively searches factorizations of p over d dimensions for
// the grid minimizing CommCost.
func Optimal(pr Problem, p int) Grid {
	best := make([]int, pr.D())
	for i := range best {
		best[i] = 1
	}
	best[0] = p
	bestCost := math.Inf(1)
	cur := make([]int, pr.D())
	var rec func(axis, rem int)
	rec = func(axis, rem int) {
		if axis == pr.D()-1 {
			cur[axis] = rem
			g := Grid{Dims: cur}
			if c := CommCost(pr, g); c < bestCost-1e-12 {
				bestCost = c
				copy(best, cur)
			}
			return
		}
		for f := 1; f <= rem; f++ {
			if rem%f == 0 {
				cur[axis] = f
				rec(axis+1, rem/f)
			}
		}
	}
	rec(0, p)
	return Grid{Dims: best}
}
