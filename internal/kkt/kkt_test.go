package kkt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func vecsApproxEqual(a, b Vector, rel float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if scale == 0 {
			continue
		}
		if math.Abs(a[i]-b[i]) > rel*scale {
			return false
		}
	}
	return true
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if v.Sum() != 6 || v.Prod() != 6 {
		t.Fatalf("Sum/Prod = %v/%v", v.Sum(), v.Prod())
	}
	if v.Dot(w) != 32 {
		t.Fatalf("Dot = %v", v.Dot(w))
	}
	d := w.Sub(v)
	if d[0] != 3 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("Sub = %v", d)
	}
	c := v.Clone()
	c[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone aliases original")
	}
}

func TestNumericalGradMatchesAnalytic(t *testing.T) {
	f := func(x Vector) float64 { return x[0]*x[0] + 3*x[1] }
	g := NumericalGrad(f, Vector{2, 5}, 1e-6)
	if math.Abs(g[0]-4) > 1e-5 || math.Abs(g[1]-3) > 1e-5 {
		t.Fatalf("grad = %v", g)
	}
}

// TestLemma5Quasiconvex checks the paper's Lemma 5: g0(x) = L − x1·x2·x3 is
// quasiconvex on the positive octant, by falsification on random samples.
func TestLemma5Quasiconvex(t *testing.T) {
	g, grad := ProductConstraint(10)
	rng := uint64(1)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return 0.1 + 5*float64(rng%1000)/1000
	}
	var samples []Vector
	for i := 0; i < 60; i++ {
		samples = append(samples, Vector{next(), next(), next()})
	}
	if !QuasiconvexOnSamples(g, grad, samples, 1e-9) {
		t.Fatal("Lemma 5 falsified: L - x1x2x3 not quasiconvex on samples")
	}
	// Verify the gradient is correct numerically.
	x := Vector{1.5, 2.5, 0.5}
	if !vecsApproxEqual(grad(x), NumericalGrad(g, x, 1e-6), 1e-4) {
		t.Fatal("ProductConstraint gradient wrong")
	}
}

// TestProductNotConvex documents why Lemma 6 (quasiconvexity suffices) is
// needed: −x1·x2·x3 is not convex on the positive octant, so Definition 2
// alone cannot be used for the product constraint.
func TestProductNotConvex(t *testing.T) {
	g, grad := ProductConstraint(0)
	samples := []Vector{{1, 1, 1}, {4, 4, 4}, {1, 4, 4}, {4, 1, 1}, {2, 2, 2}}
	if ConvexOnSamples(g, grad, samples, 1e-9) {
		t.Fatal("−x1x2x3 unexpectedly passed the convexity check; samples too weak")
	}
}

func TestConvexOnSamplesAffine(t *testing.T) {
	f := func(x Vector) float64 { return 2*x[0] - x[1] + 7 }
	grad := func(x Vector) Vector { return Vector{2, -1} }
	samples := []Vector{{0, 0}, {1, 5}, {-3, 2}, {10, -10}}
	if !ConvexOnSamples(f, grad, samples, 1e-12) {
		t.Fatal("affine function failed convexity check")
	}
	if !QuasiconvexOnSamples(f, grad, samples, 1e-12) {
		t.Fatal("affine function failed quasiconvexity check")
	}
}

func TestProductMinCaseStructure(t *testing.T) {
	// Mirror the paper's three cases with m=8, n=4, k=2 (m/n = 2,
	// mn/k² = 8) and exact expected solutions from Lemma 2.
	m, n, k := 8.0, 4.0, 2.0
	cases := []struct {
		p        float64
		want     Vector
		wantFree int
	}{
		{1, Vector{n * k, m * k / 1, m * n / 1}, 1}, // boundary P=1: x=(8,16,32)
		{2, Vector{n * k, m * k / 2, m * n / 2}, 1}, // Case 1 boundary P = m/n
		{4, Vector{8, 8, m * n / 4}, 2},             // Case 2: sqrt(mnk²/P) = sqrt(512/4)... check below
		{8, Vector{4, 4, 4}, 3},                     // boundary P = mn/k²: (mnk/P)^{2/3} = 8^{2/3}=4
		{64, Vector{1, 1, 1}, 3},                    // deep Case 3: (64/64)^{2/3} = 1
	}
	// Fix case P=4 expectation: sqrt(mnk²/P) = sqrt(8·4·4/4) = sqrt(32).
	cases[2].want = Vector{math.Sqrt(32), math.Sqrt(32), 8}
	for _, c := range cases {
		prob := ProductMin{
			L:     math.Pow(m*n*k/c.p, 2),
			Lower: Vector{n * k / c.p, m * k / c.p, m * n / c.p},
		}
		x, free := prob.Solve()
		if !vecsApproxEqual(x, c.want, 1e-9) {
			t.Errorf("P=%v: x = %v, want %v", c.p, x, c.want)
		}
		// Boundary cases may legitimately report either adjacent active-set
		// count; only check free away from boundaries.
		if c.p == 4 || c.p == 64 {
			if free != c.wantFree {
				t.Errorf("P=%v: free = %d, want %d", c.p, free, c.wantFree)
			}
		}
	}
}

func TestProductMinSlackProduct(t *testing.T) {
	p := ProductMin{L: 1, Lower: Vector{2, 3, 4}}
	x, free := p.Solve()
	if free != 0 || !vecsApproxEqual(x, Vector{2, 3, 4}, 0) {
		t.Fatalf("slack-product solve = %v free=%d", x, free)
	}
	pt := p.DualCertificate()
	if !p.Problem().IsKKT(pt, 1e-9) {
		t.Fatalf("KKT fails for slack product: %+v", p.Problem().Check(pt))
	}
}

// TestKKTCertificateAlwaysValid is the computational content of Lemma 2's
// proof: at the analytic optimum there exist dual multipliers satisfying
// all four KKT conditions (which by Lemma 6 certifies global optimality).
func TestKKTCertificateAlwaysValid(t *testing.T) {
	f := func(mRaw, nRaw, kRaw, pRaw uint8) bool {
		m := float64(mRaw%40) + 2
		n := float64(nRaw % 40)
		if n > m {
			n = m
		}
		if n < 1 {
			n = 1
		}
		k := float64(kRaw % 40)
		if k > n {
			k = n
		}
		if k < 1 {
			k = 1
		}
		p := float64(pRaw%100) + 1
		prob := ProductMin{
			L:     math.Pow(m*n*k/p, 2),
			Lower: Vector{n * k / p, m * k / p, m * n / p},
		}
		pt := prob.DualCertificate()
		res := prob.Problem().Check(pt)
		// Scale-aware tolerance: constraint values scale like the data.
		tol := 1e-7 * (1 + m*n*k)
		return res.Max() <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// bruteForce numerically minimizes p with a coarse grid search followed
// by iterated local refinement, projecting onto the tight product
// constraint. It is slow and approximate by design — an independent oracle
// TestSolveMatchesBruteForce validates Solve against. The dimension must
// be 3.
func bruteForce(p ProductMin, steps, refinements int) Vector {
	if len(p.Lower) != 3 {
		panic("kkt: bruteForce supports d = 3 only")
	}
	if p.L <= p.Lower.Prod() {
		return p.Lower.Clone()
	}
	// Search x1 in [l1, hi1], x2 in [l2, hi2]; x3 = max(l3, L/(x1 x2)).
	// Upper limits: at the optimum each x_i ≤ L / (l_j l_k) (since the
	// others are at least their bounds and the product is tight).
	lo1, lo2 := p.Lower[0], p.Lower[1]
	hi1 := p.L / (p.Lower[1] * p.Lower[2])
	hi2 := p.L / (p.Lower[0] * p.Lower[2])
	best := Vector{hi1, p.Lower[1], p.Lower[2]}
	best[2] = math.Max(p.Lower[2], p.L/(best[0]*best[1]))
	bestVal := best.Sum()
	eval := func(x1, x2 float64) {
		x3 := math.Max(p.Lower[2], p.L/(x1*x2))
		if v := x1 + x2 + x3; v < bestVal {
			bestVal = v
			best = Vector{x1, x2, x3}
		}
	}
	for r := 0; r <= refinements; r++ {
		d1 := (hi1 - lo1) / float64(steps)
		d2 := (hi2 - lo2) / float64(steps)
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				eval(lo1+float64(i)*d1, lo2+float64(j)*d2)
			}
		}
		// Refine around the incumbent.
		lo1 = math.Max(p.Lower[0], best[0]-2*d1)
		hi1 = best[0] + 2*d1
		lo2 = math.Max(p.Lower[1], best[1]-2*d2)
		hi2 = best[1] + 2*d2
	}
	return best
}

// TestSolveMatchesBruteForce validates the analytic water-filling solution
// against an independent numerical search.
func TestSolveMatchesBruteForce(t *testing.T) {
	instances := []ProductMin{
		{L: 100, Lower: Vector{1, 1, 1}},
		{L: 100, Lower: Vector{1, 2, 30}},
		{L: 64, Lower: Vector{0.5, 6, 7}},
		{L: 1000, Lower: Vector{9, 9.5, 10}},
		{L: 5, Lower: Vector{0.1, 0.2, 0.3}},
	}
	for _, p := range instances {
		x, _ := p.Solve()
		bf := bruteForce(p, 60, 8)
		if math.Abs(x.Sum()-bf.Sum()) > 1e-3*(1+x.Sum()) {
			t.Errorf("L=%v lower=%v: analytic %v (sum %v) vs brute %v (sum %v)",
				p.L, p.Lower, x, x.Sum(), bf, bf.Sum())
		}
		if x.Sum() > bf.Sum()+1e-6*(1+bf.Sum()) {
			t.Errorf("analytic solution worse than brute force: %v > %v", x.Sum(), bf.Sum())
		}
	}
}

// TestSolveGeneralDimensions exercises the water-filling solver beyond d=3
// (the §6.3 extension direction: iteration spaces with more dimensions).
func TestSolveGeneralDimensions(t *testing.T) {
	// d = 1: x = max(l, L).
	x, _ := ProductMin{L: 10, Lower: Vector{2}}.Solve()
	if x[0] != 10 {
		t.Fatalf("d=1: %v", x)
	}
	// d = 2 symmetric: x = (sqrt(L), sqrt(L)).
	x, free := ProductMin{L: 16, Lower: Vector{1, 1}}.Solve()
	if !vecsApproxEqual(x, Vector{4, 4}, 1e-12) || free != 2 {
		t.Fatalf("d=2: %v free=%d", x, free)
	}
	// d = 4 with one dominant bound.
	p := ProductMin{L: 10000, Lower: Vector{1, 1, 1, 50}}
	x, free = p.Solve()
	if free != 3 {
		t.Fatalf("d=4 free = %d, want 3", free)
	}
	want := math.Cbrt(10000.0 / 50.0)
	if !vecsApproxEqual(x, Vector{want, want, want, 50}, 1e-9) {
		t.Fatalf("d=4 x = %v", x)
	}
	pt := p.DualCertificate()
	if !p.Problem().IsKKT(pt, 1e-6) {
		t.Fatalf("d=4 KKT residuals %+v", p.Problem().Check(pt))
	}
}

func TestSolveFeasibility(t *testing.T) {
	f := func(lRaw, aRaw, bRaw, cRaw uint16) bool {
		l := float64(lRaw)/100 + 0.01
		lower := Vector{
			float64(aRaw)/1000 + 0.01,
			float64(bRaw)/1000 + 0.01,
			float64(cRaw)/1000 + 0.01,
		}
		p := ProductMin{L: l, Lower: lower}
		x, _ := p.Solve()
		for i := range x {
			if x[i] < lower[i]*(1-1e-9) {
				return false
			}
		}
		return x.Prod() >= l*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSolvePanics(t *testing.T) {
	for _, p := range []ProductMin{
		{L: 1, Lower: Vector{}},
		{L: 1, Lower: Vector{1, -1, 1}},
		{L: 1, Lower: Vector{0, 1, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", p)
				}
			}()
			p.Solve()
		}()
	}
}

func TestResidualsMax(t *testing.T) {
	r := Residuals{PrimalFeasibility: 1, DualFeasibility: 3, Stationarity: 2, ComplementarySlackness: 0.5}
	if r.Max() != 3 {
		t.Fatalf("Max = %v", r.Max())
	}
}

func TestCheckRejectsBadPoint(t *testing.T) {
	p := ProductMin{L: 100, Lower: Vector{1, 1, 1}}
	prob := p.Problem()
	// Infeasible point.
	bad := Point{X: Vector{0.5, 1, 1}, Mu: []float64{0, 0, 0, 0}}
	if prob.IsKKT(bad, 1e-9) {
		t.Fatal("infeasible point passed KKT check")
	}
	// Feasible but non-stationary point.
	bad2 := Point{X: Vector{100, 100, 100}, Mu: []float64{0, 0, 0, 0}}
	res := prob.Check(bad2)
	if res.Stationarity < 0.5 {
		t.Fatalf("expected stationarity violation, got %+v", res)
	}
}

// Dot returns the inner product ⟨v, w⟩.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("kkt: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Sub returns v − w.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("kkt: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range out {
		out[i] = v[i] - w[i]
	}
	return out
}

// NumericalGrad approximates the gradient of f at x by central differences
// with step h per coordinate.
func NumericalGrad(f Func, x Vector, h float64) Vector {
	g := make(Vector, len(x))
	for i := range x {
		xp, xm := x.Clone(), x.Clone()
		xp[i] += h
		xm[i] -= h
		g[i] = (f(xp) - f(xm)) / (2 * h)
	}
	return g
}

// ConvexOnSamples checks Definition 2 — f(y) ≥ f(x) + ⟨∇f(x), y−x⟩ — for
// every ordered pair of the supplied sample points, within tol. It is a
// falsification tool for tests, not a proof of convexity.
func ConvexOnSamples(f Func, grad Grad, samples []Vector, tol float64) bool {
	for _, x := range samples {
		gx := grad(x)
		fx := f(x)
		for _, y := range samples {
			if f(y) < fx+gx.Dot(y.Sub(x))-tol {
				return false
			}
		}
	}
	return true
}

// QuasiconvexOnSamples checks Definition 3 — g(y) ≤ g(x) implies
// ⟨∇g(x), y−x⟩ ≤ 0 — for every ordered pair of the supplied sample points,
// within tol.
func QuasiconvexOnSamples(g Func, grad Grad, samples []Vector, tol float64) bool {
	for _, x := range samples {
		gx := grad(x)
		vx := g(x)
		for _, y := range samples {
			if g(y) <= vx && gx.Dot(y.Sub(x)) > tol {
				return false
			}
		}
	}
	return true
}

// IsKKT reports whether pt satisfies all four KKT conditions within tol.
// Under the hypotheses of the paper's Lemma 6 (convex objective, quasiconvex
// constraints) this certifies global optimality of pt.X.
func (p *Problem) IsKKT(pt Point, tol float64) bool {
	return p.Check(pt).Max() <= tol
}
