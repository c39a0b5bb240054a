package hbl

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/extension"
	"repro/internal/kkt"
)

// TestMatMulReproducesTheorem3 pins the generalized engine to the paper:
// for matmul expressed as an hbl.Program, the footprint and lower bound
// must match core's closed forms in all three regimes, and FreeArrays must
// equal the paper's case number.
func TestMatMulReproducesTheorem3(t *testing.T) {
	// 9600×2400×600 sorted is m=9600, n=2400, k=600: thresholds m/n = 4 and
	// mn/k² = 64, so P = 2, 16, 512 land strictly inside Cases 1, 2, 3.
	m, n, k := 9600, 2400, 600
	prog := MatMul(m, n, k)
	dims := core.Dims{N1: m, N2: k, N3: n} // A is m×k, B is k×n, C is m×n
	for _, p := range []int{2, 16, 512} {
		b, err := MemIndependentBound(prog, p)
		if err != nil {
			t.Fatal(err)
		}
		wantCase := core.CaseOf(dims, p)
		if b.FreeArrays != int(wantCase) {
			t.Errorf("P=%d: FreeArrays = %d, want case %d", p, b.FreeArrays, wantCase)
		}
		if b.Exponent != 2.0/3.0 {
			t.Errorf("P=%d: exponent = %v, want 2/3", p, b.Exponent)
		}
		wantFoot := core.D(dims, p)
		if math.Abs(b.Footprint-wantFoot) > 1e-9*(1+wantFoot) {
			t.Errorf("P=%d: footprint = %v, want %v", p, b.Footprint, wantFoot)
		}
		wantLB := core.LowerBound(dims, p)
		if math.Abs(b.LowerBound-wantLB) > 1e-9*(1+wantLB) {
			t.Errorf("P=%d: lower bound = %v, want %v", p, b.LowerBound, wantLB)
		}
	}
}

// TestCuboidBitExact asserts the special-case collapse: on cuboid programs
// the generalized engine reproduces internal/extension bit for bit — same
// access bounds, same footprint, same free count, same lower bound.
func TestCuboidBitExact(t *testing.T) {
	shapes := [][]int{
		{32, 16, 16, 8},
		{7, 5, 6, 4},
		{9, 9, 9},
		{12, 8},
		{100, 100, 100, 10, 10},
	}
	procs := []int{1, 2, 3, 7, 64, 4096}
	for _, dims := range shapes {
		prog := Cuboid(dims...)
		ext, err := extension.NewProblem(dims...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range procs {
			b, err := MemIndependentBound(prog, p)
			if err != nil {
				t.Fatalf("%v P=%d: %v", dims, p, err)
			}
			foot, free := ext.DataFootprint(p)
			if b.Footprint != foot {
				t.Errorf("%v P=%d: footprint %v != extension %v", dims, p, b.Footprint, foot)
			}
			if b.FreeArrays != free {
				t.Errorf("%v P=%d: free %d != extension %d", dims, p, b.FreeArrays, free)
			}
			if got, want := b.LowerBound, ext.LowerBound(p); got != want {
				t.Errorf("%v P=%d: bound %v != extension %v", dims, p, got, want)
			}
			for j := range dims {
				if got, want := b.AccessBounds[j], ext.ArraySize(j)/float64(p); got != want {
					t.Errorf("%v P=%d: access bound %d: %v != %v", dims, p, j, got, want)
				}
			}
		}
	}
}

func TestMemIndependentBoundErrors(t *testing.T) {
	sym := Program{
		Indices: []string{"i"},
		Arrays:  []Array{{Name: "A", Indices: []string{"i"}}},
	}
	if _, err := MemIndependentBound(sym, 4); !errors.Is(err, core.ErrBadProgram) {
		t.Fatalf("no extents: %v, want ErrBadProgram", err)
	}
	if _, err := MemIndependentBound(MatMul(4, 4, 4), 0); !errors.Is(err, core.ErrBadProcessorCount) {
		t.Fatalf("P=0: %v, want ErrBadProcessorCount", err)
	}
	if _, err := MemIndependentBound(Program{}, 4); !errors.Is(err, core.ErrBadProgram) {
		t.Fatalf("invalid program: %v, want ErrBadProgram", err)
	}
}

// TestNBodyBound checks the classic √(n²/P) result end to end, including
// the zero-exponent handling: one position reference can carry exponent 0
// and must then sit exactly at its access bound.
func TestNBodyBound(t *testing.T) {
	n, p := 1<<12, 64
	b, err := MemIndependentBound(NBody(n), p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sigma != 2 {
		t.Fatalf("σ = %v, want 2", b.Sigma)
	}
	fn, fp := float64(n), float64(p)
	// Footprint ≥ 2√(n²/P) + n/P: two references at the water level
	// n/√P > n/P, the third pinned at its access bound.
	want := 2*fn/math.Sqrt(fp) + fn/fp
	if math.Abs(b.Footprint-want) > 1e-9*(1+want) {
		t.Fatalf("footprint = %v, want %v", b.Footprint, want)
	}
	pinned := 0
	for j, s := range b.Exponents.S {
		if s.Sign() == 0 {
			pinned++
			if b.X[j] != b.AccessBounds[j] {
				t.Errorf("zero-exponent array %d not at access bound: %v vs %v", j, b.X[j], b.AccessBounds[j])
			}
		}
	}
	if pinned != 1 {
		t.Fatalf("pinned arrays = %d, want 1", pinned)
	}
}

func TestConv2DBound(t *testing.T) {
	b, err := MemIndependentBound(Conv2D(1024, 1024, 5, 5), 256)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sigma != 2 {
		t.Fatalf("σ = %v, want 2", b.Sigma)
	}
	if b.LowerBound <= 0 {
		t.Fatalf("lower bound = %v, want positive", b.LowerBound)
	}
	if b.Footprint < math.Sqrt(b.Volume/256) {
		t.Fatalf("footprint %v below HBL floor %v", b.Footprint, math.Sqrt(b.Volume/256))
	}
}

func TestWeightedWaterFill(t *testing.T) {
	// Non-uniform weights, both free: x_j = μ·s_j with x₁·x₂² = 100.
	x, free := weightedWaterFill([]float64{1, 2}, kkt.Vector{1, 1}, math.Log(100))
	if free != 2 {
		t.Fatalf("free = %d, want 2", free)
	}
	if math.Abs(x[1]-2*x[0]) > 1e-9*x[1] {
		t.Fatalf("stationarity violated: x = %v", x)
	}
	if got := math.Log(x[0]) + 2*math.Log(x[1]); math.Abs(got-math.Log(100)) > 1e-9 {
		t.Fatalf("constraint not tight: %v", got)
	}

	// One variable pinned: level √20 < 10 forces x₁ to its bound, then
	// x₂ = 20/10 = 2.
	x, free = weightedWaterFill([]float64{1, 1}, kkt.Vector{10, 1}, math.Log(20))
	if free != 1 {
		t.Fatalf("free = %d, want 1", free)
	}
	if x[0] != 10 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("x = %v, want [10 2]", x)
	}

	// Corner: bounds alone satisfy the constraint.
	x, free = weightedWaterFill([]float64{1, 1}, kkt.Vector{10, 10}, math.Log(50))
	if free != 0 || x[0] != 10 || x[1] != 10 {
		t.Fatalf("corner: x = %v free = %d", x, free)
	}

	// Against kkt.ProductMin on uniform weights: same optimum.
	lower := kkt.Vector{3, 5, 11}
	l := 4000.0
	x, free = weightedWaterFill([]float64{1, 1, 1}, lower, math.Log(l))
	want, wantFree := (kkt.ProductMin{L: l, Lower: lower}).Solve()
	if free != wantFree {
		t.Fatalf("free = %d, want %d", free, wantFree)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9*(1+want[i]) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}
