// Package kkt implements the convex-optimization machinery of §3.2 of the
// paper: the Karush-Kuhn-Tucker conditions (Definition 4) with residuals
// that certify optimality in the setting of Lemma 6 (convex objective,
// quasiconvex constraints), Lemma 5's product constraint, and the analytic
// solver for the "product lower bound" optimization problem that is the
// crux of the paper's Lemma 2:
//
//	minimize    x_1 + ... + x_d
//	subject to  x_1 · ... · x_d ≥ L
//	            x_i ≥ l_i          (i = 1..d)
//
// The analytic solver implements the water-filling structure the paper
// derives case-by-case for d = 3, generalized to any dimension: variables
// with large individual lower bounds sit at those bounds, and the remaining
// free variables are equal, raised just enough to make the product
// constraint tight. The tests check it against independent numerical
// oracles (brute force and projected descent) and check Definitions 2 and
// 3 (convexity, quasiconvexity) on samples.
package kkt

// Vector is a point in R^d.
type Vector []float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Prod returns the product of the components of v.
func (v Vector) Prod() float64 {
	p := 1.0
	for _, x := range v {
		p *= x
	}
	return p
}

// Func is a scalar function on R^d.
type Func func(Vector) float64

// Grad is a gradient function on R^d.
type Grad func(Vector) Vector

// ProductConstraint returns the paper's Lemma 5 function
// g0(x) = L − x_1·x_2·...·x_d together with its gradient. Lemma 5 proves g0
// quasiconvex on the positive orthant (for d = 3; the AM-GM argument is
// dimension-free).
func ProductConstraint(l float64) (Func, Grad) {
	f := func(x Vector) float64 { return l - x.Prod() }
	grad := func(x Vector) Vector {
		g := make(Vector, len(x))
		for i := range x {
			p := 1.0
			for j := range x {
				if j != i {
					p *= x[j]
				}
			}
			g[i] = -p
		}
		return g
	}
	return f, grad
}
