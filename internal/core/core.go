// Package core implements the paper's primary contribution: tight
// memory-independent communication lower bounds for parallel classical
// matrix multiplication (Al Daas, Ballard, Grigori, Kumar, Rouse,
// SPAA 2022).
//
// The central objects are:
//
//   - Dims: the problem shape (an n1×n2 matrix times an n2×n3 matrix) and
//     its sorted aspect view m ≥ n ≥ k used throughout the paper.
//   - Case: which of Theorem 3's three regimes a (Dims, P) pair falls in,
//     with thresholds P = m/n and P = mn/k².
//   - Lemma2: the key constrained optimization problem and its analytic
//     solution x*, both in the paper's closed form and via the generic
//     water-filling solver of internal/kkt, together with the explicit dual
//     certificates from the proof.
//   - Theorem3: the lower bound D − (mn+mk+nk)/P with tight constants
//     1, 2, 3 in the three cases, and Corollary 4 for square matrices.
//   - Prior-work bounds (Table 1): Aggarwal-Chandra-Snir 1990,
//     Irony-Toledo-Tiskin 2004, and Demmel et al. 2013 constants.
//   - The memory-dependent bound 2mnk/(P·sqrt(M)) and the §6.2 analysis of
//     when it dominates.
//
// All bounds are in words of data moved along the critical path, matching
// the α-β-γ machine model of §3.1 (see internal/machine for the simulator
// that measures the same quantity).
package core

import "fmt"

// Dims describes a classical matrix multiplication C = A·B with A of size
// N1×N2 and B of size N2×N3 (so C is N1×N3).
type Dims struct {
	N1, N2, N3 int
}

// Sorted returns the dimensions ordered as the paper's m ≥ n ≥ k:
// m = max, n = median, k = min.
func (d Dims) Sorted() (m, n, k int) {
	m, n, k = d.N1, d.N2, d.N3
	if m < n {
		m, n = n, m
	}
	if n < k {
		n, k = k, n
	}
	if m < n {
		m, n = n, m
	}
	return m, n, k
}

// maxExactProduct is the largest integer float64 arithmetic represents
// exactly (2^53). Everything downstream of Validate — Flops, the matrix
// sizes, Lemma 2, Theorem 3 — computes products like n1·n2·n3 in float64,
// so a shape whose pairwise or triple product exceeds this would silently
// round and corrupt the bounds rather than fail.
const maxExactProduct = int64(1) << 53

// Validate reports an error when any dimension is non-positive, or when a
// pairwise or triple product of the dimensions exceeds 2^53 and would lose
// precision in the float64 arithmetic the bounds are computed with. Shapes
// with n1·n2·n3 ≤ 2^53 (≈ 9.0e15) are exact.
func (d Dims) Validate() error {
	if d.N1 <= 0 || d.N2 <= 0 || d.N3 <= 0 {
		return fmt.Errorf("core: dimensions must be positive, got %dx%dx%d: %w", d.N1, d.N2, d.N3, ErrBadDims)
	}
	// Overflow-free checks: for positive integers a·b > limit ⇔
	// a > limit/b under integer division, so no product is formed before
	// it is known to fit.
	n1, n2, n3 := int64(d.N1), int64(d.N2), int64(d.N3)
	if n1 > maxExactProduct/n2 || n2 > maxExactProduct/n3 || n1 > maxExactProduct/n3 {
		return fmt.Errorf("core: dimensions %dx%dx%d overflow exact float64 range (pairwise product > 2^53): %w", d.N1, d.N2, d.N3, ErrBadDims)
	}
	if prod := n1 * n2; n3 > maxExactProduct/prod {
		return fmt.Errorf("core: dimensions %dx%dx%d overflow exact float64 range (n1·n2·n3 > 2^53): %w", d.N1, d.N2, d.N3, ErrBadDims)
	}
	return nil
}

// Flops returns the number of scalar multiplications n1·n2·n3.
func (d Dims) Flops() float64 {
	return float64(d.N1) * float64(d.N2) * float64(d.N3)
}

// InputOutputWords returns mn + mk + nk, the total number of words of the
// three matrices (one copy of each): |A| + |B| + |C|.
func (d Dims) InputOutputWords() float64 {
	return float64(d.N1)*float64(d.N2) + float64(d.N2)*float64(d.N3) + float64(d.N1)*float64(d.N3)
}

// SizeA returns n1·n2, the number of words of A.
func (d Dims) SizeA() float64 { return float64(d.N1) * float64(d.N2) }

// SizeB returns n2·n3, the number of words of B.
func (d Dims) SizeB() float64 { return float64(d.N2) * float64(d.N3) }

// SizeC returns n1·n3, the number of words of C.
func (d Dims) SizeC() float64 { return float64(d.N1) * float64(d.N3) }

// Square returns the Dims of an n×n by n×n multiplication.
func Square(n int) Dims { return Dims{n, n, n} }

// String renders the shape as "n1xn2xn3".
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.N1, d.N2, d.N3) }

// Case identifies which regime of Theorem 3 (equivalently, which active set
// of Lemma 2) applies. The numbering matches the paper.
type Case int

const (
	// Case1 is 1 ≤ P ≤ m/n: a 1D processor grid is optimal and the bound's
	// leading term is nk with constant 1.
	Case1 Case = 1
	// Case2 is m/n ≤ P ≤ mn/k²: a 2D grid is optimal and the leading term
	// is (mnk²/P)^{1/2} with constant 2.
	Case2 Case = 2
	// Case3 is mn/k² ≤ P: a 3D grid is optimal and the leading term is
	// (mnk/P)^{2/3} with constant 3.
	Case3 Case = 3
)

// String names the case with its grid dimensionality.
func (c Case) String() string {
	switch c {
	case Case1:
		return "Case 1 (1D)"
	case Case2:
		return "Case 2 (2D)"
	case Case3:
		return "Case 3 (3D)"
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// CaseOf returns the Theorem 3 regime for multiplying with dims d on p
// processors. At the exact thresholds P = m/n and P = mn/k² adjacent cases
// coincide (the bound is continuous); CaseOf returns the lower-numbered
// case there.
func CaseOf(d Dims, p int) Case {
	m, n, k := d.Sorted()
	return caseOf(float64(m), float64(n), float64(k), float64(p))
}

// caseOf is CaseOf over the sorted dimensions m ≥ n ≥ k as floats.
func caseOf(m, n, k, p float64) Case {
	if p <= m/n {
		return Case1
	}
	if p <= m*n/(k*k) {
		return Case2
	}
	return Case3
}

// Thresholds returns the two case boundaries (m/n, mn/k²) of Theorem 3.
func Thresholds(d Dims) (oneToTwo, twoToThree float64) {
	m, n, k := d.Sorted()
	return float64(m) / float64(n), float64(m) * float64(n) / (float64(k) * float64(k))
}

// NewDims is a convenience constructor for Dims.
func NewDims(n1, n2, n3 int) Dims { return Dims{N1: n1, N2: n2, N3: n3} }
