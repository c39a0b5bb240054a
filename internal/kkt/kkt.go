package kkt

import "fmt"

// Constraint is one inequality constraint g(x) ≤ 0 with its gradient.
type Constraint struct {
	G    Func
	Grad Grad
}

// Problem is a differentiable inequality-constrained minimization problem of
// the form of the paper's eq. (1): minimize F subject to G_i(x) ≤ 0.
type Problem struct {
	F     Func
	FGrad Grad
	Cons  []Constraint
}

// Point pairs a primal candidate X with dual multipliers Mu (one per
// constraint).
type Point struct {
	X  Vector
	Mu []float64
}

// Residuals reports how far a point is from satisfying each of the four KKT
// conditions of Definition 4. All residuals are ≤ tol at an exact KKT point.
type Residuals struct {
	// PrimalFeasibility is max_i max(G_i(x), 0).
	PrimalFeasibility float64
	// DualFeasibility is max_i max(−μ_i, 0).
	DualFeasibility float64
	// Stationarity is the max-norm of ∇F(x) + Σ μ_i ∇G_i(x).
	Stationarity float64
	// ComplementarySlackness is max_i |μ_i · G_i(x)|.
	ComplementarySlackness float64
}

// Max returns the largest of the four residuals.
func (r Residuals) Max() float64 {
	m := r.PrimalFeasibility
	if r.DualFeasibility > m {
		m = r.DualFeasibility
	}
	if r.Stationarity > m {
		m = r.Stationarity
	}
	if r.ComplementarySlackness > m {
		m = r.ComplementarySlackness
	}
	return m
}

// Check evaluates the KKT residuals of pt for problem p (Definition 4).
func (p *Problem) Check(pt Point) Residuals {
	if len(pt.Mu) != len(p.Cons) {
		panic(fmt.Sprintf("kkt: %d multipliers for %d constraints", len(pt.Mu), len(p.Cons)))
	}
	var r Residuals
	// Stationarity: ∇F(x) + Σ μ_i ∇G_i(x) = 0.
	station := p.FGrad(pt.X).Clone()
	for i, c := range p.Cons {
		gi := c.G(pt.X)
		if gi > r.PrimalFeasibility {
			r.PrimalFeasibility = gi
		}
		if -pt.Mu[i] > r.DualFeasibility {
			r.DualFeasibility = -pt.Mu[i]
		}
		if cs := abs(pt.Mu[i] * gi); cs > r.ComplementarySlackness {
			r.ComplementarySlackness = cs
		}
		cg := c.Grad(pt.X)
		for j := range station {
			station[j] += pt.Mu[i] * cg[j]
		}
	}
	for _, v := range station {
		if abs(v) > r.Stationarity {
			r.Stationarity = abs(v)
		}
	}
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
