package extension

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(4); err == nil {
		t.Fatal("expected error for d=1")
	}
	if _, err := NewProblem(4, 0, 3); err == nil {
		t.Fatal("expected error for zero dim")
	}
	pr, err := NewProblem(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pr.D() != 3 || pr.Volume() != 24 {
		t.Fatalf("problem metadata: %+v", pr)
	}
	if pr.ArraySize(0) != 12 || pr.ArraySize(2) != 6 || pr.TotalWords() != 26 {
		t.Fatalf("array sizes wrong")
	}
}

// TestD3ReducesToTheorem3: for d = 3 the generalized bound is exactly the
// paper's Theorem 3.
func TestD3ReducesToTheorem3(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		n1, n2, n3 := int(aRaw%50)+1, int(bRaw%50)+1, int(cRaw%50)+1
		p := int(pRaw) + 1
		pr, err := NewProblem(n1, n2, n3)
		if err != nil {
			return false
		}
		want := core.LowerBound(core.NewDims(n1, n2, n3), p)
		got := pr.LowerBound(p)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCaseStructureGeneralizes: the number of free variables plays the
// role of the paper's case index, growing with P.
func TestCaseStructureGeneralizes(t *testing.T) {
	pr, _ := NewProblem(512, 64, 16, 16)
	prevFree := 0
	for _, p := range []int{1, 2, 8, 64, 4096, 1 << 16} {
		_, free := pr.DataFootprint(p)
		if free < prevFree {
			t.Errorf("free variables decreased: %d -> %d at P=%d", prevFree, free, p)
		}
		prevFree = free
	}
	if prevFree != 4 {
		t.Errorf("large P should free all 4 variables, got %d", prevFree)
	}
}

func TestKKTCertificateGeneral(t *testing.T) {
	for _, dims := range [][]int{{8, 8, 8}, {64, 8, 4, 2}, {32, 32, 32, 32, 32}} {
		pr, err := NewProblem(dims...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4, 16, 256, 4096} {
			if r := pr.KKTCertificate(p); r > 1e-9 {
				t.Errorf("dims %v P=%d: KKT residual %g", dims, p, r)
			}
		}
	}
}

func TestGridRoundTripAndFibers(t *testing.T) {
	g := Grid{Dims: []int{2, 3, 2, 2}}
	if g.Size() != 24 || g.String() != "2x3x2x2" {
		t.Fatalf("grid metadata: %v size %d", g, g.Size())
	}
	for r := 0; r < g.Size(); r++ {
		if got := g.Rank(g.Coords(r)); got != r {
			t.Fatalf("round trip %d -> %d", r, got)
		}
	}
	fiber := g.Fiber(g.Rank([]int{1, 2, 0, 1}), 1)
	if len(fiber) != 3 {
		t.Fatalf("fiber length %d", len(fiber))
	}
	for v, r := range fiber {
		c := g.Coords(r)
		if c[1] != v || c[0] != 1 || c[2] != 0 || c[3] != 1 {
			t.Fatalf("fiber member %d has coords %v", v, c)
		}
	}
}

func TestCommCostMatchesBoundOnOptimalGrid(t *testing.T) {
	// d=4 cube with P=16: optimal grid 2x2x2x2, bound attained.
	pr, _ := NewProblem(8, 8, 8, 8)
	g := Optimal(pr, 16)
	if g.Size() != 16 {
		t.Fatalf("optimal grid %v", g)
	}
	cost := CommCost(pr, g)
	bound := pr.LowerBound(16)
	if math.Abs(cost-bound) > 1e-9 {
		t.Fatalf("cost %v, bound %v (grid %v)", cost, bound, g)
	}
	if !Divides(pr, g) {
		t.Fatalf("grid %v should divide", g)
	}
}

func TestOptimalNeverBeatsBound(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, dRaw, pRaw uint8) bool {
		dims := []int{int(aRaw%16) + 1, int(bRaw%16) + 1, int(cRaw%16) + 1, int(dRaw%16) + 1}
		p := int(pRaw)%32 + 1
		pr, err := NewProblem(dims...)
		if err != nil {
			return false
		}
		g := Optimal(pr, p)
		return g.Size() == p && CommCost(pr, g) >= pr.LowerBound(p)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSerialMatchesMatmulSemantics(t *testing.T) {
	// d=3: Out[i0,i1] += In0[i1,i2]·In1[i0,i2]; verify one entry by hand.
	pr, _ := NewProblem(2, 2, 2)
	a := Serial(pr, 5)
	in0, in1, out := a.Data[0], a.Data[1], a.Data[2]
	// Out[0,0] = Σ_{i2} In0[0·2+i2]·In1[0·2+i2]
	want := in0[0]*in1[0] + in0[1]*in1[1]
	if math.Abs(out[0]-want) > 1e-12 {
		t.Fatalf("out[0] = %v, want %v", out[0], want)
	}
}

func TestRunMatchesSerial(t *testing.T) {
	cases := []struct {
		dims []int
		grid []int
	}{
		{[]int{6, 6, 6}, []int{2, 1, 3}},
		{[]int{8, 8, 8, 8}, []int{2, 2, 2, 2}},
		{[]int{5, 7, 3, 4}, []int{2, 2, 1, 2}}, // non-dividing
		{[]int{4, 4}, []int{2, 2}},             // degenerate d=2
		{[]int{6, 5, 4, 3, 2}, []int{2, 1, 2, 1, 1}},
	}
	for _, c := range cases {
		pr, err := NewProblem(c.dims...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(pr, Grid{Dims: c.grid}, 9, machine.BandwidthOnly())
		if err != nil {
			t.Fatalf("dims %v grid %v: %v", c.dims, c.grid, err)
		}
		want := Serial(pr, 9)
		out := want.Data[pr.D()-1]
		if len(res.Output) != len(out) {
			t.Fatalf("dims %v: output length %d, want %d", c.dims, len(res.Output), len(out))
		}
		for i := range out {
			if math.Abs(res.Output[i]-out[i]) > 1e-9 {
				t.Fatalf("dims %v grid %v: output[%d] = %v, want %v", c.dims, c.grid, i, res.Output[i], out[i])
			}
		}
	}
}

// TestRunAttainsGeneralBound is the §6.3 tightness result one dimension
// up: the simulated d=4 algorithm on the optimal dividing grid moves
// exactly the generalized lower bound.
func TestRunAttainsGeneralBound(t *testing.T) {
	pr, _ := NewProblem(8, 8, 8, 8)
	g := Optimal(pr, 16)
	res, err := Run(pr, g, 3, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	bound := pr.LowerBound(16)
	if math.Abs(res.Stats.CommCost()-bound) > 1e-9 {
		t.Fatalf("measured %v, bound %v", res.Stats.CommCost(), bound)
	}
}

func TestRunGridValidation(t *testing.T) {
	pr, _ := NewProblem(4, 4, 4)
	if _, err := Run(pr, Grid{Dims: []int{2, 2}}, 1, machine.BandwidthOnly()); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := Run(pr, Grid{Dims: []int{8, 1, 1}}, 1, machine.BandwidthOnly()); err == nil {
		t.Fatal("expected grid-exceeds-dims error")
	}
}

// TestRunNonPositiveExtent: Run refuses a grid with a zero extent (no
// processors; it used to panic) or with negative extents whose product is
// positive (every rank used to panic) with ErrBadProcessorCount.
func TestRunNonPositiveExtent(t *testing.T) {
	pr, _ := NewProblem(4, 4, 4)
	for _, dims := range [][]int{{2, 0, 2}, {-2, -2, 1}} {
		if _, err := Run(pr, Grid{Dims: dims}, 1, machine.BandwidthOnly()); !errors.Is(err, core.ErrBadProcessorCount) {
			t.Errorf("grid %v: err = %v, want ErrBadProcessorCount", dims, err)
		}
	}
}

func TestGridPanics(t *testing.T) {
	g := Grid{Dims: []int{2, 2}}
	for _, fn := range []func(){
		func() { g.Rank([]int{1}) },
		func() { g.Rank([]int{2, 0}) },
		func() { g.Coords(4) },
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

// Divides reports whether the grid divides both the iteration dimensions
// and every array block by its fiber size — the conditions for word-exact
// attainment.
func Divides(pr Problem, g Grid) bool {
	for i := range pr.N {
		if pr.N[i]%g.Dims[i] != 0 {
			return false
		}
	}
	for j := range pr.N {
		blk := 1
		for i := range pr.N {
			if i != j {
				blk *= pr.N[i] / g.Dims[i]
			}
		}
		if blk%g.Dims[j] != 0 {
			return false
		}
	}
	return true
}
