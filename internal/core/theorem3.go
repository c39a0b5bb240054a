package core

import "math"

// D evaluates the paper's D — the minimum total data footprint
// (|φ_A| + |φ_B| + |φ_C|) of a processor that performs a 1/P share of the
// computation — which equals the optimum of Lemma 2:
//
//	Case 1: (mn + mk)/P + nk
//	Case 2: 2·sqrt(mnk²/P) + mn/P
//	Case 3: 3·(mnk/P)^{2/3}
func D(d Dims, p int) float64 {
	return Lemma2Closed(d, p).Sum()
}

// LowerBound returns Theorem 3's memory-independent communication lower
// bound in words: D − (mn + mk + nk)/P. Any parallel algorithm on P
// processors that starts with one copy of the inputs, ends with one copy of
// the output, and load-balances either the computation or the data must
// move at least this many words along its critical path.
func LowerBound(d Dims, p int) float64 {
	return Lemma2Closed(d, p).Bound(d, p)
}

// Bound returns Theorem 3's bound from s, the Lemma 2 solution of (d, p):
// its sum D minus the owned words (mn + mk + nk)/P.
func (s Lemma2Solution) Bound(d Dims, p int) float64 {
	return s.Sum() - d.InputOutputWords()/float64(p)
}

// LeadingTerm returns the leading-order term of the bound in the regime of
// (d, p) — the quantity whose constants Table 1 compares:
//
//	Case 1: nk,  Case 2: (mnk²/P)^{1/2},  Case 3: (mnk/P)^{2/3}.
//
// It is x1* of Lemma 2's closed form.
func LeadingTerm(d Dims, p int) float64 {
	return Lemma2Closed(d, p).X1
}

// TightConstant returns the constant of the leading term proved tight by
// Theorem 3 together with the §5 algorithm: 1, 2, or 3 by case.
func TightConstant(c Case) float64 { return float64(c) }

// Corollary4 returns the square-matrix specialization of Theorem 3: for
// n×n matrices, at least 3n²/P^{2/3} − 3n²/P words must be communicated.
// (For P ≥ 1 square multiplication always falls in Case 3 because
// mn/k² = 1.)
func Corollary4(n, p int) float64 {
	fn, fp := float64(n), float64(p)
	return 3*fn*fn/math.Pow(fp, 2.0/3.0) - 3*fn*fn/fp
}
