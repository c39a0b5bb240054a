// Package extension implements the paper's §6.3 program: the lower-bound
// technique of Theorem 3 — a sum-of-projections objective constrained by a
// Loomis-Whitney product inequality plus per-array access bounds — applied
// beyond matrix multiplication, to any computation whose iteration space is
// a d-dimensional cuboid N_0 × … × N_{d-1} with one array per omitted
// dimension (array j is indexed by every index except i_j). Classical
// matrix multiplication is the d = 3 instance; d = 4 covers three-input
// multilinear kernels of the kind studied for tensors by Ballard and Rouse
// (cited in §6.3 as the adjacent development).
//
// For such a computation, the d-dimensional Loomis-Whitney inequality gives
// |V|^{d-1} ≤ Π_j |φ_j(V)|, and the Lemma 1 argument gives
// |φ_j(V)| ≥ (Π N / N_j)/P for any processor performing a 1/P share, so
// the per-processor data footprint is lower-bounded by the optimum of
//
//	min Σ x_j   s.t.   Π x_j ≥ (ΠN/P)^{d-1},  x_j ≥ (ΠN/N_j)/P,
//
// solved in closed form by the water-filling solver of internal/kkt. The
// package also provides d-dimensional processor grids, the eq. (3)
// generalization, exhaustive optimal-grid search, and a simulated
// All-Gather/Reduce-Scatter algorithm (the Algorithm 1 generalization) that
// attains the bound exactly on dividing grids — reproducing the paper's
// tightness story one dimension up.
package extension

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kkt"
)

// Problem is a d-dimensional cuboid computation: for every lattice point
// (i_0, …, i_{d-1}) of the N_0 × … × N_{d-1} iteration space, the values of
// the d−1 input arrays at the point's projections are multiplied and
// accumulated into the output array (array d−1). Array j omits index j.
type Problem struct {
	// N holds the iteration-space dimensions; len(N) ≥ 2.
	N []int
}

// NewProblem validates and constructs a Problem. Fewer than two dimensions,
// or a non-positive one, wraps core.ErrBadDims.
func NewProblem(dims ...int) (Problem, error) {
	if len(dims) < 2 {
		return Problem{}, fmt.Errorf("extension: need at least 2 dimensions, got %d: %w", len(dims), core.ErrBadDims)
	}
	for _, n := range dims {
		if n <= 0 {
			return Problem{}, fmt.Errorf("extension: dimensions must be positive, got %v: %w", dims, core.ErrBadDims)
		}
	}
	n := make([]int, len(dims))
	copy(n, dims)
	return Problem{N: n}, nil
}

// D returns the order (number of iteration-space dimensions).
func (pr Problem) D() int { return len(pr.N) }

// Volume returns Π N_j, the number of elementary multiply-accumulates.
func (pr Problem) Volume() float64 {
	v := 1.0
	for _, n := range pr.N {
		v *= float64(n)
	}
	return v
}

// ArraySize returns the number of words of array j: Π_{i≠j} N_i.
func (pr Problem) ArraySize(j int) float64 {
	if j < 0 || j >= len(pr.N) {
		panic(fmt.Sprintf("extension: array %d of %d", j, len(pr.N)))
	}
	return pr.Volume() / float64(pr.N[j])
}

// TotalWords returns Σ_j Π_{i≠j} N_i, the one-copy footprint of all arrays.
func (pr Problem) TotalWords() float64 {
	t := 0.0
	for j := range pr.N {
		t += pr.ArraySize(j)
	}
	return t
}

// Optimization returns the §6.3 generalization of Lemma 2's problem for
// this computation on p processors.
func (pr Problem) Optimization(p int) kkt.ProductMin {
	d := len(pr.N)
	fp := float64(p)
	lower := make(kkt.Vector, d)
	for j := range lower {
		lower[j] = pr.ArraySize(j) / fp
	}
	l := 1.0
	share := pr.Volume() / fp
	for i := 0; i < d-1; i++ {
		l *= share
	}
	return kkt.ProductMin{L: l, Lower: lower}
}

// DataFootprint returns the generalized D: the minimum total per-processor
// data footprint (the optimization's optimum), together with the number of
// "free" variables — the generalization of the paper's case index (d free
// variables is the fully 3D-like regime; fewer means some arrays are
// pinned at their access bounds, the 1D/2D-like regimes).
func (pr Problem) DataFootprint(p int) (foot float64, freeVars int) {
	x, free := pr.Optimization(p).Solve()
	return x.Sum(), free
}

// LowerBound returns the memory-independent communication lower bound in
// words per processor: DataFootprint − TotalWords/P, the Theorem 3
// generalization.
func (pr Problem) LowerBound(p int) float64 {
	foot, _ := pr.DataFootprint(p)
	return foot - pr.TotalWords()/float64(p)
}

// KKTCertificate verifies optimality of the water-filling solution via the
// generic dual construction, returning the maximum residual (≈ 0 up to
// floating point; Lemma 6's sufficiency applies since the objective is
// affine and the constraints are quasiconvex in any dimension — Lemma 5's
// AM-GM argument is dimension-free).
func (pr Problem) KKTCertificate(p int) float64 {
	prob := pr.Optimization(p)
	pt := prob.DualCertificate()
	res := prob.Problem().Check(pt)
	scale := 1 + prob.L
	r := res.PrimalFeasibility / scale
	if v := res.ComplementarySlackness / scale; v > r {
		r = v
	}
	if res.DualFeasibility > r {
		r = res.DualFeasibility
	}
	if res.Stationarity > r {
		r = res.Stationarity
	}
	return r
}
