package grid

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestRankCoordsRoundTrip(t *testing.T) {
	g := Grid{3, 4, 5}
	seen := make(map[int]bool)
	for i1 := 0; i1 < 3; i1++ {
		for i2 := 0; i2 < 4; i2++ {
			for i3 := 0; i3 < 5; i3++ {
				r := g.Rank(i1, i2, i3)
				if r < 0 || r >= g.Size() || seen[r] {
					t.Fatalf("rank %d invalid or duplicate", r)
				}
				seen[r] = true
				j1, j2, j3 := g.Coords(r)
				if j1 != i1 || j2 != i2 || j3 != i3 {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", i1, i2, i3, r, j1, j2, j3)
				}
			}
		}
	}
	if len(seen) != 60 {
		t.Fatalf("covered %d ranks", len(seen))
	}
}

func TestGridValidateAndString(t *testing.T) {
	// Past a product of math.MaxInt a grid is a mismatch, whatever its
	// wrapped Size would match.
	for _, tc := range []struct {
		g  Grid
		ok bool
	}{
		{Grid{2, 2, 2}, true},
		{Grid{0, 1, 1}, false},
		{Grid{math.MaxInt, 1, 1}, true},
		{Grid{1, 1, math.MaxInt}, true},
		{Grid{math.MaxInt / 2, 2, 1}, true},
		{Grid{1 << 31, 1 << 31, 1}, true},
		{Grid{math.MaxInt/2 + 1, 2, 1}, false},
		{Grid{1 << 62, 1, 2}, false},
		{Grid{1<<62 + 1, 4, 1}, false}, // Size() wraps to 4
		{Grid{1 << 31, 1 << 31, 2}, false},
		{Grid{math.MaxInt, math.MaxInt, math.MaxInt}, false},
	} {
		err := tc.g.Validate()
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, core.ErrGridMismatch)) {
			t.Errorf("%v: Validate = %v, want ok=%v", tc.g, err, tc.ok)
		}
	}
	if (Grid{2, 3, 4}).String() != "2x3x4" {
		t.Fatal("String wrong")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := Grid{2, 2, 2}
	for _, fn := range []func(){
		func() { g.Rank(2, 0, 0) },
		func() { g.Coords(8) },
		func() { g.Coords(-1) },
		func() { g.Fiber(0, Axis(7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFibers(t *testing.T) {
	g := Grid{2, 3, 4}
	r := g.Rank(1, 2, 3)
	f1 := g.Fiber(r, Axis1)
	if len(f1) != 2 || f1[0] != g.Rank(0, 2, 3) || f1[1] != r {
		t.Fatalf("Axis1 fiber = %v", f1)
	}
	f2 := g.Fiber(r, Axis2)
	if len(f2) != 3 || f2[0] != g.Rank(1, 0, 3) || f2[2] != r {
		t.Fatalf("Axis2 fiber = %v", f2)
	}
	f3 := g.Fiber(r, Axis3)
	if len(f3) != 4 || f3[0] != g.Rank(1, 2, 0) || f3[3] != r {
		t.Fatalf("Axis3 fiber = %v", f3)
	}
	// Every rank in a fiber computes the same fiber.
	for _, other := range f2 {
		got := g.Fiber(other, Axis2)
		for i := range got {
			if got[i] != f2[i] {
				t.Fatalf("fiber not shared: %v vs %v", got, f2)
			}
		}
	}
	if Axis1.String() != "axis1" || Axis2.String() != "axis2" || Axis3.String() != "axis3" {
		t.Fatal("axis names")
	}
}

func TestCommCostEquation3(t *testing.T) {
	d := core.NewDims(9600, 2400, 600)
	// 1D grid 3×1×1: cost = (mn+mk)/3 + nk − io/3 = (1−1/3)nk... compute
	// directly from eq. (3).
	g := Grid{3, 1, 1}
	want := 9600.0*2400/3 + 2400.0*600/1 + 9600.0*600/3 - (9600.0*2400+2400*600+9600*600)/3
	if got := CommCost(d, g); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CommCost = %v, want %v", got, want)
	}
	// Grid of 1 processor: zero cost.
	if got := CommCost(d, Grid{1, 1, 1}); got != 0 {
		t.Fatalf("single-processor cost = %v", got)
	}
}

func TestMemoryCostMatchesD(t *testing.T) {
	// With the optimal case grid, MemoryCost equals the paper's D (§6.2).
	d := core.NewDims(9600, 2400, 600)
	for _, p := range []int{3, 36, 512} {
		g, err := CaseGrid(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := MemoryCost(d, g), core.D(d, p); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("P=%d MemoryCost %v, want D = %v", p, got, want)
		}
	}
}

// TestFigure2Grids reproduces the paper's Figure 2: for 9600×2400×600 the
// optimal grids at P = 3, 36, 512 are 3×1×1, 12×3×1, and 32×8×2.
func TestFigure2Grids(t *testing.T) {
	d := core.NewDims(9600, 2400, 600)
	cases := []struct {
		p    int
		want Grid
	}{
		{3, Grid{3, 1, 1}},
		{36, Grid{12, 3, 1}},
		{512, Grid{32, 8, 2}},
	}
	for _, c := range cases {
		g, err := CaseGrid(d, c.p)
		if err != nil {
			t.Fatalf("P=%d: %v", c.p, err)
		}
		if g != c.want {
			t.Errorf("CaseGrid(P=%d) = %v, want %v", c.p, g, c.want)
		}
		if opt := Optimal(d, c.p); CommCost(d, opt) > CommCost(d, g)+1e-9 {
			t.Errorf("Optimal(P=%d) = %v costs more than case grid %v", c.p, opt, g)
		}
	}
}

// TestCaseGridAttainsLowerBound is §5.2 at the formula level: the case
// grid's eq. (3) cost equals Theorem 3's lower bound.
func TestCaseGridAttainsLowerBound(t *testing.T) {
	d := core.NewDims(9600, 2400, 600)
	for _, p := range []int{1, 2, 3, 4, 8, 16, 36, 64, 256, 512, 4096} {
		g, err := CaseGrid(d, p)
		if err != nil {
			continue // analytic grid not integral for this P; fine
		}
		got := CommCost(d, g)
		want := core.LowerBound(d, p)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("P=%d grid %v: cost %v, bound %v", p, g, got, want)
		}
	}
}

func TestAnalyticProductIsP(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		d := core.NewDims(int(aRaw%60)+1, int(bRaw%60)+1, int(cRaw%60)+1)
		p := int(pRaw) + 1
		g1, g2, g3 := Analytic(d, p)
		return math.Abs(g1*g2*g3-float64(p)) < 1e-6*float64(p) &&
			g1 >= 1-1e-9 && g2 >= 1-1e-9 && g3 >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAnalyticAlignsWithDims(t *testing.T) {
	// The largest grid dimension must be assigned to the largest matrix
	// dimension, regardless of input order.
	for _, d := range []core.Dims{core.NewDims(9600, 2400, 600), core.NewDims(600, 2400, 9600), core.NewDims(2400, 600, 9600)} {
		g1, g2, g3 := Analytic(d, 512)
		got := map[int]float64{d.N1: g1, d.N2: g2, d.N3: g3}
		if got[9600] < got[2400] || got[2400] < got[600] {
			t.Errorf("dims %v: grid (%v,%v,%v) misaligned", d, g1, g2, g3)
		}
	}
}

func TestOptimalNeverWorseThanCaseGrid(t *testing.T) {
	shapes := []core.Dims{core.NewDims(9600, 2400, 600), core.NewDims(64, 64, 64), core.NewDims(128, 32, 8), core.NewDims(100, 10, 1)}
	for _, d := range shapes {
		for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64} {
			opt := Optimal(d, p)
			if opt.Size() != p {
				t.Fatalf("Optimal(%v, %d) = %v has wrong size", d, p, opt)
			}
			if cg, err := CaseGrid(d, p); err == nil {
				if CommCost(d, opt) > CommCost(d, cg)+1e-9 {
					t.Errorf("dims %v P=%d: Optimal %v worse than case grid %v", d, p, opt, cg)
				}
			}
			// And never better than the lower bound.
			if CommCost(d, opt) < core.LowerBound(d, p)-1e-6 {
				t.Errorf("dims %v P=%d: grid %v beats the lower bound", d, p, opt)
			}
		}
	}
}

func TestOptimalSquare(t *testing.T) {
	// Square matmul on a cube number of processors: cubic grid.
	g := Optimal(core.Square(64), 64)
	if g != (Grid{4, 4, 4}) {
		t.Fatalf("Optimal cube grid = %v", g)
	}
}

func TestCaseGridErrors(t *testing.T) {
	// P = 7 on the paper dims: analytic Case 2 grid is irrational.
	if _, err := CaseGrid(core.NewDims(9600, 2400, 600), 7); err == nil {
		t.Fatal("expected non-integral analytic grid error")
	}
	// Integral grid but does not divide dims.
	if _, err := CaseGrid(core.NewDims(5, 5, 5), 8); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestDivides(t *testing.T) {
	d := core.NewDims(12, 6, 4)
	if !Divides(d, Grid{3, 2, 4}) || Divides(d, Grid{5, 1, 1}) {
		t.Fatal("Divides wrong")
	}
}

// TestOptimalUnderMemory documents a consequence of Lemma 2: eq.(3)'s
// footprint is the optimization objective, so the communication-optimal
// grid is also the memory-cheapest one. With mem ≥ D the constrained
// search returns the unconstrained optimum; below D nothing fits.
func TestOptimalUnderMemory(t *testing.T) {
	d := core.NewDims(768, 192, 48)
	p := 512
	dOpt := core.D(d, p)
	g, ok := OptimalUnderMemory(d, p, dOpt+1)
	if !ok || g != Optimal(d, p) {
		t.Fatalf("ample memory: got %v ok=%v", g, ok)
	}
	if _, ok := OptimalUnderMemory(d, p, dOpt*0.99); ok {
		t.Fatal("no grid should fit below D")
	}
	// Generous memory changes nothing.
	if g2, ok := OptimalUnderMemory(d, p, 1e12); !ok || g2 != g {
		t.Fatal("generous memory should return the optimum")
	}
}

// TestMemoryCostMinimizedAtOptimalGrid: every other grid has footprint ≥ D.
func TestMemoryCostMinimizedAtOptimalGrid(t *testing.T) {
	d := core.NewDims(96, 24, 6)
	for _, p := range []int{4, 16, 36, 64} {
		dOpt := core.D(d, p)
		for p1 := 1; p1 <= p; p1++ {
			if p%p1 != 0 {
				continue
			}
			for p2 := 1; p2 <= p/p1; p2++ {
				if (p/p1)%p2 != 0 {
					continue
				}
				g := Grid{p1, p2, p / p1 / p2}
				if MemoryCost(d, g) < dOpt-1e-9 {
					t.Fatalf("grid %v footprint %v below D = %v", g, MemoryCost(d, g), dOpt)
				}
			}
		}
	}
}
