package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Analytic returns the real-valued optimal grid of §5.2 in the original
// dimension order (not sorted): with m ≥ n ≥ k the sorted dims and p, q, r
// the grid dims assigned to them,
//
//	Case 1 (P ≤ m/n):         (p, q, r) = (P, 1, 1)
//	Case 2 (m/n ≤ P ≤ mn/k²):  p = (Pm/n)^{1/2}, q = (Pn/m)^{1/2}, r = 1
//	Case 3 (mn/k² ≤ P):        p = (P/mnk)^{1/3}·m, and similarly q, r.
//
// The components multiply to P exactly but are generally not integers.
func Analytic(d core.Dims, p int) (g1, g2, g3 float64) {
	m, n, k := d.Sorted()
	fm, fn, fk, fp := float64(m), float64(n), float64(k), float64(p)
	var bySize [3]float64 // grid dims for (max, median, min) matrix dims
	switch core.CaseOf(d, p) {
	case core.Case1:
		bySize = [3]float64{fp, 1, 1}
	case core.Case2:
		bySize = [3]float64{math.Sqrt(fp * fm / fn), math.Sqrt(fp * fn / fm), 1}
	default:
		c := math.Cbrt(fp / (fm * fn * fk))
		bySize = [3]float64{c * fm, c * fn, c * fk}
	}
	perm := sortPerm(d)
	var out [3]float64
	for sortedIdx, dimIdx := range perm {
		out[dimIdx] = bySize[sortedIdx]
	}
	return out[0], out[1], out[2]
}

// sortPerm returns perm such that perm[0] is the index (0,1,2 for n1,n2,n3)
// of the maximum dimension, perm[1] of the median, perm[2] of the minimum,
// breaking ties by original index for determinism.
func sortPerm(d core.Dims) [3]int {
	dims := [3]int{d.N1, d.N2, d.N3}
	idx := []int{0, 1, 2}
	sort.SliceStable(idx, func(a, b int) bool { return dims[idx[a]] > dims[idx[b]] })
	return [3]int{idx[0], idx[1], idx[2]}
}

// Optimal returns the integer grid with p1·p2·p3 = P minimizing the eq. (3)
// communication cost, found by exhaustive search over divisor triples. Ties
// are broken toward grids that divide the matrix dimensions, then
// lexicographically, so the result is deterministic. This is the grid a
// practical implementation would use when the analytic §5.2 grid is not
// integral. No heap allocation for P ≤ 2^24.
func Optimal(d core.Dims, p int) Grid {
	if p <= 0 {
		panic(fmt.Sprintf("grid: Optimal with P=%d", p))
	}
	var buf [maxDivisors]int
	divs := appendDivisors(buf[:0], p)
	best := Grid{p, 1, 1}
	bestCost := math.Inf(1)
	bestDivides := false
	for _, p1 := range divs {
		rest := p / p1
		for _, p2 := range divs {
			if p2 > rest {
				break
			}
			if rest%p2 != 0 {
				continue
			}
			g := Grid{p1, p2, rest / p2}
			cost := CommCost(d, g)
			div := Divides(d, g)
			better := cost < bestCost-1e-9
			if !better && math.Abs(cost-bestCost) <= 1e-9 {
				// Tie: prefer dividing grids, then lexicographic order.
				if div && !bestDivides {
					better = true
				}
			}
			if better {
				best, bestCost, bestDivides = g, cost, div
			}
		}
	}
	return best
}

// OptimalUnderMemory returns the eq. (3)-cheapest integer grid whose
// per-processor footprint (MemoryCost: gathered panels plus the local C
// contribution) fits in mem words, or false when no grid of P processors
// fits. As mem shrinks below Algorithm 1's unconstrained footprint D, the
// best feasible grid flattens from 3D toward 2D and 1D and the cost rises —
// the §6.2 memory/communication trade-off made concrete. (Below
// (mn+mk+nk)/P nothing can fit, matching core.MinLocalMemory.)
//
// Triples are visited in Optimal's order, and the search prunes against
// both the budget and the best cost so far. A p1 row is skipped when its
// floor exceeds mem or cannot beat the best cost; past p2* a row stops at
// the first footprint that, shrunk by slack, exceeds mem or cannot beat
// the best cost either, since every later footprint is at least that. No
// heap allocation for P ≤ 2^24.
func OptimalUnderMemory(d core.Dims, p int, mem float64) (Grid, bool) {
	if p <= 0 {
		panic(fmt.Sprintf("grid: OptimalUnderMemory with P=%d", p))
	}
	var buf [maxDivisors]int
	divs := appendDivisors(buf[:0], p)
	s := newSearch(d, p)
	var best Grid
	bestCost := math.Inf(1)
	found := false
	for _, p1 := range divs {
		rest := p / p1
		floor, p2star := s.row(p1, rest)
		if floor > mem || floor-s.owned >= bestCost-1e-9 {
			continue
		}
		for _, p2 := range divs {
			if p2 > rest {
				break
			}
			if rest%p2 != 0 {
				continue
			}
			g := Grid{p1, p2, rest / p2}
			foot, cost := s.costs(g)
			if !(foot > mem) && cost < bestCost-1e-9 {
				best, bestCost, found = g, cost, true
			} else if float64(p2) > p2star*(1+slack) {
				if low := foot * (1 - slack); low > mem || low-s.owned >= bestCost-1e-9 {
					break
				}
			}
		}
	}
	return best, found
}

// slack is a relative margin of 32 float64 roundings. Bounds are shrunk by
// it, so a pruned triple is always one the full scan provably rejects.
const slack = 0x1p-48

// search holds the per-(dims, P) constants of the divisor-triple searches,
// which visit p1 ascending, then p2 ascending: the order first-seen ties
// are broken in.
type search struct {
	d      core.Dims
	sa, sb float64 // |A| = n1n2, |B| = n2n3
	perP   float64 // |C|/P
	owned  float64 // (|A|+|B|+|C|)/P, the words a rank starts with
}

func newSearch(d core.Dims, p int) search {
	return search{
		d: d, sa: d.SizeA(), sb: d.SizeB(),
		perP:  d.SizeC() / float64(p),
		owned: d.InputOutputWords() / float64(p),
	}
}

// costs returns g's footprint and eq. (3) cost, bit for bit what
// MemoryCost and CommCost return (below 2^53, float64 of p1·p2·p3 is
// float64(P) exactly), evaluating the footprint once.
func (s *search) costs(g Grid) (foot, cost float64) {
	foot = MemoryCost(s.d, g)
	return foot, foot - s.owned
}

// row bounds the triples (p1, p2, rest/p2) with rest = P/p1. Their
// footprint A/p2 + B + C·p2, with A = |A|/p1, B = |B|/rest and C = |C|/P,
// is at least 2√(AC) + B over real p2 > 0, reached at p2* = √(A/C). floor
// is that shrunk by slack, below any footprint costs computes in the row;
// rounding is monotone, so floor − owned is below any cost too.
func (s *search) row(p1, rest int) (floor, p2star float64) {
	a := s.sa / float64(p1)
	b := s.sb / float64(rest)
	return (2*math.Sqrt(a*s.perP) + b) * (1 - slack), math.Sqrt(a / s.perP)
}

// CaseGrid builds the §5.2 grid with integer rounding of the analytic
// construction and verifies it is exact: it returns an error unless the
// analytic grid dimensions are integers that divide the corresponding
// matrix dimensions. Use it in tightness experiments, where exact
// attainment of the bound is asserted; use Optimal elsewhere.
func CaseGrid(d core.Dims, p int) (Grid, error) {
	g1, g2, g3 := Analytic(d, p)
	round := func(x float64) (int, bool) {
		r := math.Round(x)
		return int(r), math.Abs(x-r) < 1e-6
	}
	i1, ok1 := round(g1)
	i2, ok2 := round(g2)
	i3, ok3 := round(g3)
	if !ok1 || !ok2 || !ok3 {
		return Grid{}, fmt.Errorf("grid: analytic grid (%.3f, %.3f, %.3f) for %v P=%d is not integral: %w", g1, g2, g3, d, p, core.ErrGridMismatch)
	}
	g := Grid{i1, i2, i3}
	if g.Size() != p {
		return Grid{}, fmt.Errorf("grid: rounded grid %v has size %d, want %d: %w", g, g.Size(), p, core.ErrGridMismatch)
	}
	if !Divides(d, g) {
		return Grid{}, fmt.Errorf("grid: %v does not divide %v: %w", g, d, core.ErrGridMismatch)
	}
	return g, nil
}
