// Package grid implements the 3D logical processor grids of the paper's §5:
// coordinates and rank numbering on a p1×p2×p3 grid aligned with the matmul
// iteration space, the fibers along which Algorithm 1's collectives run,
// the eq. (3) communication-cost predictor, and the §5.2 optimal grid
// selection (both the paper's analytic construction and an exhaustive
// search over divisor triples for dimensions the analytic grid does not
// divide).
package grid

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Grid is a p1×p2×p3 logical processor grid. P1 partitions n1 (rows of A
// and C), P2 partitions n2 (the contracted dimension), and P3 partitions n3
// (columns of B and C).
type Grid struct {
	P1, P2, P3 int
}

// Size returns the number of processors p1·p2·p3.
func (g Grid) Size() int { return g.P1 * g.P2 * g.P3 }

// Validate reports an error if any grid dimension is non-positive or the
// processor count p1·p2·p3 exceeds an int, where Size would wrap.
func (g Grid) Validate() error {
	if g.P1 <= 0 || g.P2 <= 0 || g.P3 <= 0 {
		return fmt.Errorf("grid: dimensions must be positive, got %v: %w", g, core.ErrGridMismatch)
	}
	if g.P2 > math.MaxInt/g.P1 || g.P3 > math.MaxInt/(g.P1*g.P2) {
		return fmt.Errorf("grid: %v has more than %d processors: %w", g, math.MaxInt, core.ErrGridMismatch)
	}
	return nil
}

// String renders the grid as "p1xp2xp3".
func (g Grid) String() string { return fmt.Sprintf("%dx%dx%d", g.P1, g.P2, g.P3) }

// Rank returns the linear rank of coordinates (i1, i2, i3), with i3 varying
// fastest.
func (g Grid) Rank(i1, i2, i3 int) int {
	if i1 < 0 || i1 >= g.P1 || i2 < 0 || i2 >= g.P2 || i3 < 0 || i3 >= g.P3 {
		panic(fmt.Sprintf("grid: coords (%d,%d,%d) out of %v", i1, i2, i3, g))
	}
	return (i1*g.P2+i2)*g.P3 + i3
}

// Coords inverts Rank.
func (g Grid) Coords(rank int) (i1, i2, i3 int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("grid: rank %d out of %v", rank, g))
	}
	i3 = rank % g.P3
	rank /= g.P3
	i2 = rank % g.P2
	i1 = rank / g.P2
	return
}

// Axis identifies a grid dimension.
type Axis int

const (
	// Axis1 varies i1 (the n1 / rows-of-A dimension).
	Axis1 Axis = iota
	// Axis2 varies i2 (the contracted n2 dimension).
	Axis2
	// Axis3 varies i3 (the n3 / cols-of-B dimension).
	Axis3
)

// String names the axis.
func (a Axis) String() string { return [...]string{"axis1", "axis2", "axis3"}[a] }

// FiberLen returns the number of ranks in a fiber along the axis.
func (g Grid) FiberLen(axis Axis) int {
	switch axis {
	case Axis1:
		return g.P1
	case Axis2:
		return g.P2
	case Axis3:
		return g.P3
	}
	panic(fmt.Sprintf("grid: unknown axis %d", axis))
}

// FiberInto writes into dst, which must hold exactly FiberLen(axis)
// entries, the ranks obtained by fixing the other two coordinates of rank
// and varying the given axis, in increasing coordinate order, and returns
// dst. These are the communicator groups of Algorithm 1: the A All-Gather
// runs on the Axis3 fiber, the B All-Gather on the Axis1 fiber, and the C
// Reduce-Scatter on the Axis2 fiber.
func (g Grid) FiberInto(dst []int, rank int, axis Axis) []int {
	if len(dst) != g.FiberLen(axis) {
		panic(fmt.Sprintf("grid: FiberInto got %d entries for %v of %v", len(dst), axis, g))
	}
	i1, i2, i3 := g.Coords(rank)
	switch axis {
	case Axis1:
		for v := 0; v < g.P1; v++ {
			dst[v] = g.Rank(v, i2, i3)
		}
	case Axis2:
		for v := 0; v < g.P2; v++ {
			dst[v] = g.Rank(i1, v, i3)
		}
	case Axis3:
		for v := 0; v < g.P3; v++ {
			dst[v] = g.Rank(i1, i2, v)
		}
	}
	return dst
}

// Fibers lays out every fiber along axis in one table of Size() entries,
// fiber after fiber: the fiber through rank r, listed as FiberInto lists
// it, is tab[o : o+FiberLen(axis)] with o = FiberOffset(r, axis). Every
// member of a fiber communicates over the same list, so a simulation
// builds the table once and its ranks share it read-only instead of each
// holding a copy.
func (g Grid) Fibers(axis Axis) []int {
	tab := make([]int, g.Size())
	for r := range tab {
		i1, i2, i3 := g.Coords(r)
		tab[g.FiberOffset(r, axis)+[3]int{i1, i2, i3}[axis]] = r
	}
	return tab
}

// FiberOffset returns where the fiber through rank along axis starts in the
// table Fibers(axis) builds. Fibers are ordered by their two fixed
// coordinates, the earlier axis first.
func (g Grid) FiberOffset(rank int, axis Axis) int {
	i1, i2, i3 := g.Coords(rank)
	switch axis {
	case Axis1:
		return (i2*g.P3 + i3) * g.P1
	case Axis2:
		return (i1*g.P3 + i3) * g.P2
	case Axis3:
		return (i1*g.P2 + i2) * g.P3
	}
	panic(fmt.Sprintf("grid: unknown axis %d", axis))
}

// CommCost evaluates eq. (3) of the paper: the per-processor communication
// volume of Algorithm 1 on this grid,
//
//	n1n2/(p1p2) + n2n3/(p2p3) + n1n3/(p1p3) − (n1n2 + n2n3 + n1n3)/P.
func CommCost(d core.Dims, g Grid) float64 {
	p1, p2, p3 := float64(g.P1), float64(g.P2), float64(g.P3)
	return MemoryCost(d, g) - d.InputOutputWords()/(p1*p2*p3)
}

// MemoryCost returns the per-processor words Algorithm 1 holds on this
// grid: the gathered A and B panels plus the local C contribution (the
// positive terms of eq. (3)); see §6.2.
func MemoryCost(d core.Dims, g Grid) float64 {
	p1, p2, p3 := float64(g.P1), float64(g.P2), float64(g.P3)
	return d.SizeA()/(p1*p2) + d.SizeB()/(p2*p3) + d.SizeC()/(p1*p3)
}

// Divides reports whether the grid dimensions divide the matrix dimensions
// exactly — the assumption under which §5.2 proves exact attainment.
func Divides(d core.Dims, g Grid) bool {
	return d.N1%g.P1 == 0 && d.N2%g.P2 == 0 && d.N3%g.P3 == 0
}
