package core

import (
	"math"

	"repro/internal/kkt"
)

// Lemma2Solution is the optimum of the paper's key optimization problem
// (Lemma 2): minimize x1+x2+x3 subject to x1·x2·x3 ≥ (mnk/P)², x1 ≥ nk/P,
// x2 ≥ mk/P, x3 ≥ mn/P, where m ≥ n ≥ k are the sorted dimensions.
//
// X1 corresponds to the projection onto the smallest matrix (size nk),
// X2 to the middle one (mk), and X3 to the largest (mn).
type Lemma2Solution struct {
	X1, X2, X3 float64
	Case       Case
}

// Sum returns x1* + x2* + x3*, the paper's D.
func (s Lemma2Solution) Sum() float64 { return s.X1 + s.X2 + s.X3 }

// Lemma2Closed evaluates the paper's closed-form solution of Lemma 2:
//
//	Case 1 (P ≤ m/n):        x* = (nk, mk/P, mn/P)
//	Case 2 (m/n ≤ P ≤ mn/k²): x* = (sqrt(mnk²/P), sqrt(mnk²/P), mn/P)
//	Case 3 (mn/k² ≤ P):       x* = ((mnk/P)^{2/3}, ·, ·)
func Lemma2Closed(d Dims, p int) Lemma2Solution {
	m, n, k := d.Sorted()
	fm, fn, fk, fp := float64(m), float64(n), float64(k), float64(p)
	switch c := caseOf(fm, fn, fk, fp); c {
	case Case1:
		return Lemma2Solution{X1: fn * fk, X2: fm * fk / fp, X3: fm * fn / fp, Case: c}
	case Case2:
		t := math.Sqrt(fm * fn * fk * fk / fp)
		return Lemma2Solution{X1: t, X2: t, X3: fm * fn / fp, Case: c}
	default:
		t := math.Pow(fm*fn*fk/fp, 2.0/3.0)
		return Lemma2Solution{X1: t, X2: t, X3: t, Case: Case3}
	}
}

// Lemma2Problem returns the Lemma 2 instance as a generic ProductMin
// problem over (x1, x2, x3), suitable for the water-filling solver and for
// KKT verification.
func Lemma2Problem(d Dims, p int) kkt.ProductMin {
	m, n, k := d.Sorted()
	fm, fn, fk, fp := float64(m), float64(n), float64(k), float64(p)
	l := fm * fn * fk / fp
	return kkt.ProductMin{
		L:     l * l,
		Lower: kkt.Vector{fn * fk / fp, fm * fk / fp, fm * fn / fp},
	}
}

// Lemma2Numeric solves Lemma 2 via the generic water-filling solver of
// internal/kkt, independently of the closed forms. Tests assert it agrees
// with Lemma2Closed everywhere.
func Lemma2Numeric(d Dims, p int) Lemma2Solution {
	x, _ := Lemma2Problem(d, p).Solve()
	return Lemma2Solution{X1: x[0], X2: x[1], X3: x[2], Case: CaseOf(d, p)}
}

// Lemma2Duals returns the explicit dual variables μ* the paper exhibits in
// the proof of Lemma 2 for the regime of (d, p), in the constraint order
// (product, x1-bound, x2-bound, x3-bound):
//
//	Case 1: μ = (P²/(m²nk), 0, 1 − Pn/m, 1 − Pk/m)
//	Case 2: μ = ((P/(mnk^{2/3}))^{3/2}, 0, 0, 1 − (Pk²/(mn))^{1/2})
//	Case 3: μ = ((P/(mnk))^{4/3}, 0, 0, 0)
//
// Note on Case 2: the paper's typeset first component "(P/(mnk^{2/3}))^{3/2}"
// is the rendering of μ₁ = (P/(mn))^{3/2}/k; stationarity fixes it uniquely
// to μ₁ = 1/(x2*·x3*) with the case's x* — which is the value returned here.
func Lemma2Duals(d Dims, p int) []float64 {
	m, n, k := d.Sorted()
	fm, fn, fk, fp := float64(m), float64(n), float64(k), float64(p)
	switch CaseOf(d, p) {
	case Case1:
		return []float64{
			fp * fp / (fm * fm * fn * fk),
			0,
			1 - fp*fn/fm,
			1 - fp*fk/fm,
		}
	case Case2:
		// μ₁ = 1/(x2*·x3*) with x2* = sqrt(mnk²/P), x3* = mn/P:
		// μ₁ = P^{3/2} / ((mn)^{3/2}·k).
		x2 := math.Sqrt(fm * fn * fk * fk / fp)
		x3 := fm * fn / fp
		return []float64{
			1 / (x2 * x3),
			0,
			0,
			1 - math.Sqrt(fp*fk*fk/(fm*fn)),
		}
	default:
		return []float64{math.Pow(fp/(fm*fn*fk), 4.0/3.0), 0, 0, 0}
	}
}

// Lemma2KKTResiduals evaluates the KKT conditions of Definition 4 at the
// closed-form optimum with the paper's dual variables. All residuals are
// zero (up to floating-point error) in every case — this is the
// machine-checked version of the proof of Lemma 2.
func Lemma2KKTResiduals(d Dims, p int) kkt.Residuals {
	sol := Lemma2Closed(d, p)
	pt := kkt.Point{
		X:  kkt.Vector{sol.X1, sol.X2, sol.X3},
		Mu: Lemma2Duals(d, p),
	}
	return Lemma2Problem(d, p).Problem().Check(pt)
}

// Lemma2KKTRelativeResidual returns the largest KKT residual normalized by
// the problem scale: the primal-feasibility and complementary-slackness
// terms involve the product constraint, whose magnitude is
// L = (mnk/P)², so their raw values carry that scale's floating-point
// noise; stationarity and dual feasibility are already O(1). Values within
// a few ulps of machine precision certify the paper's dual variables.
func Lemma2KKTRelativeResidual(d Dims, p int) float64 {
	res := Lemma2KKTResiduals(d, p)
	scale := 1 + Lemma2Problem(d, p).L
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
