package kkt

import (
	"fmt"
	"math"
	"sort"
)

// ProductMin is the optimization problem at the heart of the paper's
// Lemma 2, in any dimension d ≥ 1:
//
//	minimize    Σ_i x_i
//	subject to  Π_i x_i ≥ L
//	            x_i ≥ Lower_i > 0
//
// For the matrix multiplication bound, d = 3, L = (mnk/P)², and the lower
// bounds are the per-array access bounds nk/P, mk/P, mn/P of Lemma 1.
type ProductMin struct {
	L     float64
	Lower Vector
}

// Solve returns the unique optimum of the problem using the water-filling
// structure: every variable is max(Lower_i, t) where the water level t is
// chosen so the product constraint is tight; if the lower bounds alone
// already satisfy the product constraint, the optimum is the lower-bound
// vector itself.
//
// The returned activeFree is the number of variables strictly governed by
// the water level (the paper's Case 1/2/3 for d = 3 correspond to
// activeFree = 1, 2, 3).
func (p ProductMin) Solve() (x Vector, activeFree int) {
	d := len(p.Lower)
	if d == 0 {
		panic("kkt: ProductMin with no variables")
	}
	for i, l := range p.Lower {
		if l <= 0 {
			panic(fmt.Sprintf("kkt: ProductMin lower bound %d = %v must be positive", i, l))
		}
	}
	if p.L <= p.Lower.Prod() {
		// Product constraint is slack at the lower-bound corner.
		return p.Lower.Clone(), 0
	}

	// Sort indices by ascending lower bound; the j variables with the
	// smallest bounds are the free ones for the smallest feasible j.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.Lower[idx[a]] < p.Lower[idx[b]] })

	for j := 1; j <= d; j++ {
		// Free variables: idx[0..j); fixed at bounds: idx[j..d).
		fixedProd := 1.0
		for _, i := range idx[j:] {
			fixedProd *= p.Lower[i]
		}
		t := math.Pow(p.L/fixedProd, 1/float64(j))
		// Validity: t must dominate every free bound and not exceed any
		// fixed bound (otherwise that variable should be free as well).
		if t < p.Lower[idx[j-1]]-1e-12*p.Lower[idx[j-1]] {
			continue
		}
		if j < d && t > p.Lower[idx[j]]*(1+1e-12) {
			continue
		}
		x = p.Lower.Clone()
		for _, i := range idx[:j] {
			x[i] = t
		}
		return x, j
	}
	panic(fmt.Sprintf("kkt: ProductMin.Solve found no consistent active set for L=%v lower=%v", p.L, p.Lower))
}

// Problem converts the ProductMin instance into the generic KKT Problem
// form of Definition 4, with the product constraint first followed by the
// d individual lower-bound constraints (matching the paper's ordering of
// g(x) in the proof of Lemma 2).
func (p ProductMin) Problem() *Problem {
	d := len(p.Lower)
	obj := func(x Vector) float64 { return x.Sum() }
	objGrad := func(x Vector) Vector {
		g := make(Vector, d)
		for i := range g {
			g[i] = 1
		}
		return g
	}
	prodF, prodG := ProductConstraint(p.L)
	cons := []Constraint{{G: prodF, Grad: prodG}}
	for i := 0; i < d; i++ {
		i := i
		cons = append(cons, Constraint{
			G: func(x Vector) float64 { return p.Lower[i] - x[i] },
			Grad: func(x Vector) Vector {
				g := make(Vector, d)
				g[i] = -1
				return g
			},
		})
	}
	return &Problem{F: obj, FGrad: objGrad, Cons: cons}
}

// DualCertificate constructs multipliers μ that, together with the optimum
// x* returned by Solve, satisfy the KKT conditions. Stationarity requires
// μ_0·(Π_{j≠i} x*_j) + μ_i = 1 for each i, with μ_i = 0 for free variables,
// which fixes μ_0 = 1/(Π_{j≠f} x*_j) for any free variable f and
// μ_i = 1 − μ_0·Π_{j≠i} x*_j for the bound-tight ones. This generalizes the
// explicit dual vectors the paper exhibits in Cases 1–3 of Lemma 2.
func (p ProductMin) DualCertificate() Point {
	x, free := p.Solve()
	d := len(x)
	mu := make([]float64, d+1)
	if free == 0 {
		// Product constraint slack: μ_0 = 0 and μ_i = 1 for all i.
		for i := 1; i <= d; i++ {
			mu[i] = 1
		}
		return Point{X: x, Mu: mu}
	}
	// Identify one free variable: any i with x_i > Lower_i (or equality in
	// the boundary case — then the certificate still works since the
	// corresponding μ_i is 0).
	prod := x.Prod()
	// Find the water level t = min over free candidates; free variables are
	// exactly those with the smallest x values equal to t.
	t := math.Inf(1)
	for i := range x {
		if x[i] < t {
			t = x[i]
		}
	}
	mu[0] = t / prod // 1 / (Π_{j≠f} x_j) where x_f = t
	for i := 0; i < d; i++ {
		mu[i+1] = 1 - mu[0]*prod/x[i]
		if mu[i+1] < 0 && mu[i+1] > -1e-12 {
			mu[i+1] = 0
		}
	}
	return Point{X: x, Mu: mu}
}
