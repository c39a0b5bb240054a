// Package caps implements a Communication-Avoiding Parallel Strassen
// (CAPS-style, Ballard et al. 2012) matrix multiplication on the simulated
// α-β-γ machine, for P = 7^K processors — the algorithm family that
// attains the *fast* memory-independent communication bounds of §2.3
// (Ballard et al. 2012b): per-processor volume Θ(n²/P^{2/ω0}) with
// ω0 = log₂ 7, strictly below the classical Theorem 3 floor of
// 3(n³/P)^{2/3} for large P, because Strassen performs fewer scalar
// multiplications.
//
// The implementation executes breadth-first (BFS) Strassen steps: at each
// recursion level the current group of q = 7^j processors jointly forms
// the seven operand pairs (T_i, S_i) from quadrant linear combinations —
// local arithmetic, thanks to a distribution invariant — then
// redistributes each pair to one subgroup of q/7 processors, recurses, and
// redistributes the seven products M_i back to combine them into the
// quadrants of C.
//
// Distribution invariant: a group of q = 7^j processors holds an m×m
// matrix as its quadtree *leaf blocks* at depth j (4^j blocks of
// (m/2^j)×(m/2^j), in NW, NE, SW, SE recursive order), each leaf's packed
// words split into q balanced contiguous ranges, one per group member.
// Because every leaf has the same word count, each member's share of the
// four quadrant subtrees are equal-length aligned vectors, so the Strassen
// combinations T_i, S_i (and later the C quadrants) are elementwise vector
// arithmetic on local data. The BFS redistributions are then pure interval
// reshuffles — per leaf, the q-way balanced partition is exchanged for the
// (q/7)-way partition of the owning subgroup (downward), and back
// (upward) — whose volumes are exactly the CAPS BFS-step costs.
package caps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// Result is the outcome of a CAPS multiplication.
type Result struct {
	// C is the assembled product.
	C *matrix.Dense
	// Stats are the machine statistics of the run.
	Stats machine.WorldStats
	// Levels is the number of BFS Strassen levels (P = 7^Levels).
	Levels int
}

// CommCost returns the per-processor communication volume (max words
// received by any rank).
func (r *Result) CommCost() float64 { return r.Stats.CommCost() }

// Multiply runs CAPS on p = 7^levels simulated processors. The matrices
// must be square n×n with n divisible by 2^levels.
func Multiply(a, b *matrix.Dense, levels int, cfg machine.Config) (*Result, error) {
	if a.Rows() != a.Cols() || b.Rows() != b.Cols() || a.Cols() != b.Rows() {
		return nil, fmt.Errorf("caps: need square matrices, got %dx%d · %dx%d: %w", a.Rows(), a.Cols(), b.Rows(), b.Cols(), core.ErrBadDims)
	}
	n := a.Rows()
	if levels < 0 {
		return nil, fmt.Errorf("caps: negative levels: %w", core.ErrBadProcessorCount)
	}
	// A positive int has at most 62 factors of two; past that 1<<levels
	// wraps to zero.
	if levels > 62 || n%(1<<levels) != 0 {
		return nil, fmt.Errorf("caps: n=%d not divisible by 2^%d: %w", n, levels, core.ErrGridMismatch)
	}
	p := 1
	for i := 0; i < levels; i++ {
		p *= 7
	}

	w, err := machine.New(p, cfg)
	if err != nil {
		return nil, err
	}
	shares := make([][]float64, p)
	runErr := w.Run(func(r *machine.Rank) {
		aShare := extractShare(a, levels, p, r.ID())
		bShare := extractShare(b, levels, p, r.ID())
		r.GrowMemory(float64(len(aShare) + len(bShare)))
		group := make([]int, p)
		for i := range group {
			group[i] = i
		}
		shares[r.ID()] = capsNode(r, group, n, aShare, bShare, 0)
	})
	if runErr != nil {
		return nil, runErr
	}

	c := assemble(n, levels, p, shares)
	return &Result{C: c, Stats: w.Stats(), Levels: levels}, nil
}

// PredictedVolumes returns the exact per-rank received-word counts of the
// BFS schedule, computed by a pure counting twin of the executor's
// interval arithmetic (same balanced partitions, same overlaps). Tests
// assert the simulated volumes equal these word-for-word.
func PredictedVolumes(n, levels int) []float64 {
	p := 1
	for i := 0; i < levels; i++ {
		p *= 7
	}
	recv := make([]float64, p)
	countNode(0, p, n, recv)
	return recv
}

// countNode mirrors capsNode's communication for the group
// [groupStart, groupStart+q) on a size-n problem.
func countNode(groupStart, q, n int, recv []float64) {
	if q == 1 {
		return
	}
	d := log7(q)
	subSize := q / 7
	numLeaves := pow4(d - 1)
	half := n / 2
	leafW := (half * half) / numLeaves
	// Downward: member me of subgroup i receives, from every src ≠ me,
	// the overlap of src's q-partition range with me's subSize-partition
	// range, per leaf, for both T and S.
	for i := 0; i < 7; i++ {
		for idx := 0; idx < subSize; idx++ {
			me := i*subSize + idx
			nStart := matrix.PartStart(leafW, subSize, idx)
			nSize := matrix.PartSize(leafW, subSize, idx)
			for src := 0; src < q; src++ {
				if src == me {
					continue
				}
				sStart := matrix.PartStart(leafW, q, src)
				sSize := matrix.PartSize(leafW, q, src)
				lo, hi := overlap(sStart, sStart+sSize, nStart, nStart+nSize)
				if lo < hi {
					recv[groupStart+me] += 2 * float64(numLeaves*(hi-lo)) // T and S
				}
			}
		}
	}
	// Recurse per subgroup.
	for i := 0; i < 7; i++ {
		countNode(groupStart+i*subSize, subSize, half, recv)
	}
	// Upward: rank me receives, from every member s of every subgroup i
	// (except itself), the overlap of s's subSize-partition range with
	// me's q-partition range, per leaf.
	for me := 0; me < q; me++ {
		mStart := matrix.PartStart(leafW, q, me)
		mSize := matrix.PartSize(leafW, q, me)
		for i := 0; i < 7; i++ {
			for sIdx := 0; sIdx < subSize; sIdx++ {
				src := i*subSize + sIdx
				if src == me {
					continue
				}
				sStart := matrix.PartStart(leafW, subSize, sIdx)
				sSize := matrix.PartSize(leafW, subSize, sIdx)
				lo, hi := overlap(sStart, sStart+sSize, mStart, mStart+mSize)
				if lo < hi {
					recv[groupStart+me] += float64(numLeaves * (hi - lo))
				}
			}
		}
	}
}
