package bsp

import (
	"repro/internal/core"
	"repro/internal/grid"
)

// Alg1Schedule builds the BSP superstep schedule of the paper's Algorithm 1
// on processor grid g: the A All-Gather rounds (all Axis3 fibers in
// parallel — BSP supersteps are global, so concurrent fibers share
// supersteps), the B All-Gather rounds, one computation superstep, and the
// C Reduce-Scatter rounds. recursive selects recursive doubling/halving
// (power-of-two fibers only) versus ring schedules; word counts mirror
// internal/algs exactly, including uneven shares.
func Alg1Schedule(d core.Dims, g grid.Grid, m *Machine, recursive bool) {
	scheduleAllGather(d, g, m, grid.Axis3, blockWordsA, recursive)
	scheduleAllGather(d, g, m, grid.Axis1, blockWordsB, recursive)
	// Local computation superstep.
	comp := m.Step()
	for r := 0; r < g.Size(); r++ {
		comp.Compute(r, d.Flops()/float64(g.Size()))
	}
	scheduleReduceScatter(d, g, m, recursive)
}

// blockWordsA returns the packed size of rank r's A block on grid g.
func blockWordsA(d core.Dims, g grid.Grid, r int) int {
	i1, i2, _ := g.Coords(r)
	return partSize(d.N1, g.P1, i1) * partSize(d.N2, g.P2, i2)
}

// blockWordsB returns the packed size of rank r's B block on grid g.
func blockWordsB(d core.Dims, g grid.Grid, r int) int {
	_, i2, i3 := g.Coords(r)
	return partSize(d.N2, g.P2, i2) * partSize(d.N3, g.P3, i3)
}

// blockWordsD returns the packed size of rank r's C contribution on grid g.
func blockWordsD(d core.Dims, g grid.Grid, r int) int {
	i1, _, i3 := g.Coords(r)
	return partSize(d.N1, g.P1, i1) * partSize(d.N3, g.P3, i3)
}

func partSize(n, p, i int) int {
	q, rem := n/p, n%p
	if i < rem {
		return q + 1
	}
	return q
}

// fairCountsInto splits total into len(counts) balanced parts in counts,
// returning it; the schedule builders reuse one buffer across their rank
// loops.
func fairCountsInto(counts []int, total int) []int {
	f := len(counts)
	q, rem := total/f, total%f
	for i := range counts {
		counts[i] = q
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// scheduleAllGather adds the All-Gather rounds of one input matrix: every
// fiber along axis gathers its block (distributed as balanced packed
// shares) with the ring or recursive-doubling pattern.
func scheduleAllGather(d core.Dims, g grid.Grid, m *Machine, axis grid.Axis, blockWords func(core.Dims, grid.Grid, int) int, recursive bool) {
	f := fiberSize(g, axis)
	if f <= 1 {
		return
	}
	useRec := recursive && f&(f-1) == 0
	rounds := f - 1
	if useRec {
		rounds = log2(f)
	}
	fiber := make([]int, f)
	counts := make([]int, f)
	for s := 0; s < rounds; s++ {
		step := m.Step()
		for r := 0; r < g.Size(); r++ {
			g.FiberInto(fiber, r, axis)
			me := indexIn(fiber, r)
			fairCountsInto(counts, blockWords(d, g, r))
			if useRec {
				span := 1 << s
				partner := me ^ span
				lo := me &^ (span - 1)
				w := 0
				for q := lo; q < lo+span; q++ {
					w += counts[q]
				}
				step.Send(r, fiber[partner], float64(w))
			} else {
				sendIdx := ((me-s)%f + f) % f
				right := fiber[(me+1)%f]
				step.Send(r, right, float64(counts[sendIdx]))
			}
		}
	}
}

// scheduleReduceScatter adds the Reduce-Scatter rounds over Axis2 fibers.
func scheduleReduceScatter(d core.Dims, g grid.Grid, m *Machine, recursive bool) {
	f := g.P2
	if f <= 1 {
		return
	}
	useRec := recursive && f&(f-1) == 0
	rounds := f - 1
	if useRec {
		rounds = log2(f)
	}
	fiber := make([]int, f)
	counts := make([]int, f)
	for s := 0; s < rounds; s++ {
		step := m.Step()
		for r := 0; r < g.Size(); r++ {
			g.FiberInto(fiber, r, grid.Axis2)
			me := indexIn(fiber, r)
			fairCountsInto(counts, blockWordsD(d, g, r))
			if useRec {
				// Recursive halving: at step s the active span is f/2^s;
				// send the half not containing me.
				span := f >> s
				half := span / 2
				lo := me &^ (span - 1)
				mid := lo + half
				w := 0
				var partner int
				if me < mid {
					partner = me + half
					for q := mid; q < lo+span; q++ {
						w += counts[q]
					}
				} else {
					partner = me - half
					for q := lo; q < mid; q++ {
						w += counts[q]
					}
				}
				step.Send(r, fiber[partner], float64(w))
				step.Compute(r, float64(w)) // the received half is added
			} else {
				sendIdx := ((me-s-1)%f + f) % f
				recvIdx := ((me-s-2)%f + f) % f
				right := fiber[(me+1)%f]
				step.Send(r, right, float64(counts[sendIdx]))
				step.Compute(r, float64(counts[recvIdx]))
			}
		}
	}
}

func fiberSize(g grid.Grid, axis grid.Axis) int {
	switch axis {
	case grid.Axis1:
		return g.P1
	case grid.Axis2:
		return g.P2
	default:
		return g.P3
	}
}

func indexIn(fiber []int, r int) int {
	for i, v := range fiber {
		if v == r {
			return i
		}
	}
	panic("bsp: rank not in its own fiber")
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// Alg1BSP schedules Algorithm 1 on grid g and returns the BSP cost for gap
// gGap and latency l.
func Alg1BSP(d core.Dims, g grid.Grid, gGap, l float64, recursive bool) (Cost, *Machine) {
	m := New(g.Size(), gGap, l)
	Alg1Schedule(d, g, m, recursive)
	return m.Cost(), m
}

// LPRAMLowerBound is the memory-independent bound in the LPRAM model: the
// inputs live in shared memory and the output must be written back, so a
// processor's traffic is the full projection sum — the Lemma 2 optimum D —
// with no deduction for initially-owned data.
func LPRAMLowerBound(d core.Dims, p int) float64 { return core.D(d, p) }

// LPRAMAlg1Cost is Algorithm 1's LPRAM traffic on grid g: each processor
// reads its gathered A and B panels from shared memory and writes its C
// contribution — the positive terms of eq. (3). With the §5.2 grid it
// equals LPRAMLowerBound exactly, so the Theorem 3 analysis is tight in
// the LPRAM model too (improving the (1/2)^{2/3} constant of Aggarwal et
// al. 1990 to 3 in the cubic case).
func LPRAMAlg1Cost(d core.Dims, g grid.Grid) float64 { return grid.MemoryCost(d, g) }
