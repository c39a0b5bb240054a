package extension

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(4); !errors.Is(err, core.ErrBadDims) {
		t.Fatalf("d=1: err = %v, want ErrBadDims", err)
	}
	if _, err := NewProblem(4, 0, 3); !errors.Is(err, core.ErrBadDims) {
		t.Fatalf("zero dim: err = %v, want ErrBadDims", err)
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
	c := make([]int, 4)
	for r := 0; r < g.Size(); r++ {
		if got := g.Rank(g.coordsOf(r, c)); got != r {
			t.Fatalf("round trip %d -> %d", r, got)
		}
	}
	for axis, want := range [][]int{{9, 21}, {1, 5, 9}, {9, 11}, {8, 9}} {
		fiber := g.fiberOf([]int{0, 2, 0, 1}, axis, make([]int, g.Dims[axis]))
		if !slices.Equal(fiber, want) {
			t.Fatalf("axis %d: fiber %v, want %v", axis, fiber, want)
		}
	}
	fiber := g.fiberOf([]int{1, 2, 0, 1}, 1, make([]int, 3))
	for v, r := range fiber {
		c := g.coordsOf(r, c)
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

// TestRunBytes pins the SHA-256 of Run's output bits and of its
// WorldStats (as JSON, which writes every float in its shortest exact
// form) for d = 2…5 on grids that split unevenly. The output's float sums
// depend on the order each rank multiplies and reduces, and the stats on
// every word, message, flop and memory charge, so a change to the rank
// body that keeps what it moves must leave both alone.
func TestRunBytes(t *testing.T) {
	cases := []struct {
		dims, grid    []int
		output, stats string
	}{
		{[]int{7, 5}, []int{3, 2},
			"42c908fd61a5afb66a18af6f1a8e33f0a7b4d4f37f59af9028a1686ed2cca669",
			"73af464beb2b6a33743bd4a413df510034917d120849799e60da56817ed7b637"},
		{[]int{13, 11, 9}, []int{3, 2, 2},
			"049b4dc2b363015d4f453a46b3d1ff3aa973ed4f596fb5081cb69f20e3757ed0",
			"66442e3b16f746ed2e4ad129f22e395cc2afe9c116a4f029bbbbeab54a8b1e55"},
		{[]int{7, 9, 5, 6}, []int{2, 3, 1, 2},
			"7a6a2444d83584093ccfa5ed7aa684927595d1be34b9beba003ce2d42ce2c11e",
			"b5ea3df8cab964bc27bad5c0c4ce0086921b4e94af7705ba1767a0ea96dc64f6"},
		{[]int{6, 5, 4, 3, 2}, []int{2, 1, 2, 3, 2},
			"38523b4e33bbe52c40a500b866213875c0037500d5d395236e0fb8951287f0ee",
			"fa1e000870fe660919cd01e10fc0f9850bc5da7a65005fd36de44da573844ca2"},
	}
	for _, c := range cases {
		pr, err := NewProblem(c.dims...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(pr, Grid{Dims: c.grid}, 7, machine.BandwidthOnly())
		if err != nil {
			t.Fatalf("dims %v grid %v: %v", c.dims, c.grid, err)
		}
		var bits []byte
		for _, v := range res.Output {
			bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
		}
		stats, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		out, st := sha256.Sum256(bits), sha256.Sum256(stats)
		if got := hex.EncodeToString(out[:]); got != c.output {
			t.Errorf("dims %v grid %v: output SHA-256 %s, want %s", c.dims, c.grid, got, c.output)
		}
		if got := hex.EncodeToString(st[:]); got != c.stats {
			t.Errorf("dims %v grid %v: stats SHA-256 %s, want %s", c.dims, c.grid, got, c.stats)
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
	if _, err := Run(pr, Grid{Dims: []int{2, 2}}, 1, machine.BandwidthOnly()); !errors.Is(err, core.ErrGridMismatch) {
		t.Fatalf("2-d grid: err = %v, want ErrGridMismatch", err)
	}
	if _, err := Run(pr, Grid{Dims: []int{8, 1, 1}}, 1, machine.BandwidthOnly()); !errors.Is(err, core.ErrGridMismatch) {
		t.Fatalf("grid exceeding dims: err = %v, want ErrGridMismatch", err)
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
