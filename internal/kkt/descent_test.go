package kkt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveDescentMatchesAnalytic(t *testing.T) {
	instances := []ProductMin{
		{L: 100, Lower: Vector{1, 1, 1}},
		{L: 100, Lower: Vector{1, 2, 30}},
		{L: 64, Lower: Vector{0.5, 6, 7}},
		{L: 1000, Lower: Vector{9, 9.5, 10}},
		{L: 5, Lower: Vector{0.1, 0.2, 0.3}},
		{L: 1e6, Lower: Vector{1, 1, 1, 1}},    // d = 4
		{L: 1e4, Lower: Vector{1, 2, 3, 4, 5}}, // d = 5
		{L: 12, Lower: Vector{100, 100, 100}},  // slack product
	}
	for _, p := range instances {
		x, _ := p.Solve()
		y := p.SolveDescent(20000, 0.05)
		if math.Abs(x.Sum()-y.Sum()) > 1e-4*(1+x.Sum()) {
			t.Errorf("L=%v lower=%v: analytic sum %v, descent sum %v (%v)", p.L, p.Lower, x.Sum(), y.Sum(), y)
		}
		// Descent result must be feasible.
		if y.Prod() < p.L*(1-1e-9) && p.L > p.Lower.Prod() {
			t.Errorf("descent infeasible: prod %v < L %v", y.Prod(), p.L)
		}
		for i := range y {
			if y[i] < p.Lower[i]*(1-1e-9) {
				t.Errorf("descent violates bound %d: %v < %v", i, y[i], p.Lower[i])
			}
		}
	}
}

func TestSolveDescentNeverBeatsAnalytic(t *testing.T) {
	// If descent ever found a strictly better feasible point, the
	// analytic optimum (certified by KKT) would be wrong.
	f := func(lRaw, aRaw, bRaw, cRaw uint16) bool {
		l := float64(lRaw)/50 + 0.1
		lower := Vector{
			float64(aRaw)/2000 + 0.05,
			float64(bRaw)/2000 + 0.05,
			float64(cRaw)/2000 + 0.05,
		}
		p := ProductMin{L: l, Lower: lower}
		x, _ := p.Solve()
		y := p.SolveDescent(3000, 0.05)
		return y.Sum() >= x.Sum()-1e-6*(1+x.Sum())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// SolveDescent minimizes the ProductMin problem numerically by projected
// gradient descent on a reduced parametrization, independent of both the
// analytic water-filling solution and the grid-search oracle. It works in
// any dimension d.
//
// Parametrization: at any optimum the product constraint is tight (unless
// already slack at the lower-bound corner), so we optimize over
// y = log x and descend the objective Σ exp(y_i) along the constraint
// manifold Σ y_i = log L, projecting y back onto the box y_i ≥ log l_i
// after every step. The projection of the gradient onto the manifold's
// tangent space keeps the product fixed; box clipping followed by
// re-normalization of the free coordinates restores feasibility. The method
// converges linearly for this smooth convex-over-the-manifold problem;
// iterations and step size are fixed generously since this is a test
// oracle, not a production solver.
func (p ProductMin) SolveDescent(iters int, step float64) Vector {
	d := len(p.Lower)
	if p.L <= p.Lower.Prod() {
		return p.Lower.Clone()
	}
	logL := math.Log(p.L)
	lb := make([]float64, d)
	for i, l := range p.Lower {
		lb[i] = math.Log(l)
	}
	// Start at the scaled point y_i = logL/d adjusted to the box.
	y := make([]float64, d)
	for i := range y {
		y[i] = logL / float64(d)
	}
	project(y, lb, logL)
	for it := 0; it < iters; it++ {
		// Gradient of Σ exp(y_i) is exp(y_i); project out the all-ones
		// direction (the constraint normal in y-space).
		g := make([]float64, d)
		mean := 0.0
		for i := range y {
			g[i] = math.Exp(y[i])
			mean += g[i]
		}
		mean /= float64(d)
		norm := 0.0
		for i := range g {
			g[i] -= mean
			norm += g[i] * g[i]
		}
		if norm < 1e-24 {
			break
		}
		for i := range y {
			y[i] -= step * g[i] / math.Sqrt(norm+1)
		}
		project(y, lb, logL)
	}
	out := make(Vector, d)
	for i := range y {
		out[i] = math.Exp(y[i])
	}
	return out
}

// project restores feasibility of y: clip to the box y ≥ lb, then spread
// any product deficit or surplus uniformly over the coordinates that remain
// strictly above their bounds (iterating because the spread can push new
// coordinates onto their bounds).
func project(y, lb []float64, logL float64) {
	d := len(y)
	for pass := 0; pass < d+1; pass++ {
		sum := 0.0
		for i := range y {
			if y[i] < lb[i] {
				y[i] = lb[i]
			}
			sum += y[i]
		}
		deficit := logL - sum
		if math.Abs(deficit) < 1e-15*(1+math.Abs(logL)) {
			return
		}
		if deficit > 0 {
			// Raise all coordinates uniformly; never violates the box.
			for i := range y {
				y[i] += deficit / float64(d)
			}
			return
		}
		// Lower only the coordinates with slack, equally.
		var free []int
		for i := range y {
			if y[i] > lb[i]+1e-15 {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			return // fully pinned; product exceeds L, still feasible
		}
		for _, i := range free {
			y[i] += deficit / float64(len(free))
		}
	}
}
