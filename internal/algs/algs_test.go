package algs

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

func bwOpts() Opts { return Opts{Config: machine.BandwidthOnly()} }

// verify runs an algorithm and checks the product against the serial
// reference, returning the result for further cost assertions.
func verify(t *testing.T, name string, run Runner, n1, n2, n3, p int, opts Opts) *Result {
	t.Helper()
	a := matrix.Random(n1, n2, uint64(n1*7+n2))
	b := matrix.Random(n2, n3, uint64(n2*13+n3))
	res, err := run(a, b, p, opts)
	if err != nil {
		t.Fatalf("%s(%dx%dx%d, P=%d): %v", name, n1, n2, n3, p, err)
	}
	want := matrix.Mul(a, b)
	if diff := res.C.MaxAbsDiff(want); diff > 1e-9*float64(n2) {
		t.Fatalf("%s(%dx%dx%d, P=%d): wrong product, max diff %g", name, n1, n2, n3, p, diff)
	}
	return res
}

func TestAlg1CorrectnessAcrossShapes(t *testing.T) {
	cases := []struct{ n1, n2, n3, p int }{
		{1, 1, 1, 1}, {8, 8, 8, 1}, {8, 8, 8, 8}, {12, 12, 12, 27},
		{16, 8, 4, 8}, {4, 8, 16, 8}, {96, 24, 6, 3}, {96, 24, 6, 36},
		{13, 7, 5, 6},   // nothing divides: balanced partitions
		{10, 10, 10, 7}, // prime P → skinny optimal grid
		{5, 9, 33, 12},
	}
	for _, c := range cases {
		verify(t, "Alg1", Alg1, c.n1, c.n2, c.n3, c.p, bwOpts())
	}
}

func TestAlg1ExplicitGrid(t *testing.T) {
	opts := bwOpts()
	opts.Grid = grid.Grid{P1: 2, P2: 3, P3: 4}
	verify(t, "Alg1", Alg1, 10, 9, 8, 24, opts)
}

func TestAlg1GridErrors(t *testing.T) {
	a := matrix.Random(4, 4, 1)
	b := matrix.Random(4, 4, 2)
	opts := bwOpts()
	opts.Grid = grid.Grid{P1: 2, P2: 2, P3: 2}
	if _, err := Alg1(a, b, 9, opts); err == nil {
		t.Fatal("expected grid-size mismatch error")
	}
	opts.Grid = grid.Grid{P1: 8, P2: 1, P3: 1}
	if _, err := Alg1(a, b, 8, opts); err == nil {
		t.Fatal("expected grid-exceeds-dims error")
	}
	if _, err := Alg1(matrix.Random(4, 5, 1), matrix.Random(4, 4, 2), 1, bwOpts()); err == nil {
		t.Fatal("expected inner-dimension error")
	}
}

// TestAlg1AttainsBoundAllCases is the headline §5.2 tightness experiment at
// test scale: with the paper's case grids on a 768×192×48 problem (the
// Figure 2 shape scaled by 1/12.5, preserving the thresholds m/n = 4 and
// mn/k² = 64), the measured per-rank communication equals Theorem 3's
// lower bound to the word, in all three cases. The dimensions are chosen so
// every §5 even-distribution assumption holds exactly (blocks divide by
// their fiber sizes) at each P below.
func TestAlg1AttainsBoundAllCases(t *testing.T) {
	d := core.NewDims(768, 192, 48)
	for _, p := range []int{1, 2, 3, 4, 16, 36, 64, 512} {
		g, err := grid.CaseGrid(d, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		opts := bwOpts()
		opts.Grid = g
		res := verify(t, "Alg1", Alg1, 768, 192, 48, p, opts)
		bound := core.LowerBound(d, p)
		if math.Abs(res.CommCost()-bound) > 1e-9*(1+bound) {
			t.Errorf("P=%d grid %v case %v: measured %v words, bound %v",
				p, g, core.CaseOf(d, p), res.CommCost(), bound)
		}
		// Every rank moves the same volume (perfect balance).
		for r, rs := range res.Stats.Ranks {
			if math.Abs(rs.WordsRecv-bound) > 1e-9*(1+bound) {
				t.Errorf("P=%d rank %d recv %v, bound %v", p, r, rs.WordsRecv, bound)
			}
		}
	}
}

// TestAllToAll3DSameBandwidthMoreMessages verifies the paper's §5.1 remark:
// replacing the Reduce-Scatter by an All-to-All keeps the bandwidth equal
// but increases the message count.
func TestAllToAll3DSameBandwidthMoreMessages(t *testing.T) {
	d := core.NewDims(24, 24, 24)
	p := 64 // grid 4x4x4
	g, err := grid.CaseGrid(d, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := bwOpts()
	opts.Grid = g
	rs := verify(t, "Alg1", Alg1, 24, 24, 24, p, opts)
	aa := verify(t, "AllToAll3D", AllToAll3D, 24, 24, 24, p, opts)
	if math.Abs(rs.CommCost()-aa.CommCost()) > 1e-9 {
		t.Errorf("bandwidth differs: RS %v vs A2A %v", rs.CommCost(), aa.CommCost())
	}
	if aa.Stats.TotalMessages <= rs.Stats.TotalMessages {
		t.Errorf("A2A messages %d not more than RS %d", aa.Stats.TotalMessages, rs.Stats.TotalMessages)
	}
}

func TestOneDCorrectnessAndCost(t *testing.T) {
	res := verify(t, "OneD", OneD, 18, 6, 4, 6, bwOpts())
	// Cost: (1 − 1/P)·n2·n3 received per rank (P divides n2·n3 so the
	// shares are exactly even).
	want := (1 - 1.0/6) * 6 * 4
	if math.Abs(res.CommCost()-want) > 1e-9 {
		t.Errorf("OneD cost %v, want %v", res.CommCost(), want)
	}
	verify(t, "OneD", OneD, 7, 3, 9, 7, bwOpts())
	if _, err := OneD(matrix.Random(3, 3, 1), matrix.Random(3, 3, 2), 5, bwOpts()); err == nil {
		t.Fatal("expected P ≤ n1 error")
	}
}

// TestOneDMatchesCase1Bound: in Case 1 with n1 the largest dimension, the
// 1D algorithm is optimal.
func TestOneDMatchesCase1Bound(t *testing.T) {
	d := core.NewDims(96, 24, 6)
	for _, p := range []int{2, 3, 4} {
		res := verify(t, "OneD", OneD, 96, 24, 6, p, bwOpts())
		bound := core.LowerBound(d, p)
		if math.Abs(res.CommCost()-bound) > 1e-9 {
			t.Errorf("P=%d OneD cost %v, bound %v", p, res.CommCost(), bound)
		}
	}
}

func TestSUMMACorrectness(t *testing.T) {
	cases := []struct{ n1, n2, n3, p int }{
		{8, 8, 8, 4}, {8, 12, 16, 4}, {6, 12, 6, 6}, {16, 16, 16, 16}, {9, 6, 9, 9},
		{10, 12, 10, 1},
	}
	for _, c := range cases {
		verify(t, "SUMMA", SUMMA, c.n1, c.n2, c.n3, c.p, bwOpts())
	}
}

func TestSUMMACostFormula(t *testing.T) {
	// On a pr×pc grid with tree broadcasts, per-rank received words are
	// (1−1/pc)·n1n2/pr + (1−1/pr)·n2n3/pc.
	n := 16
	p := 16
	opts := bwOpts()
	opts.Grid = grid.Grid{P1: 4, P2: 1, P3: 4}
	res := verify(t, "SUMMA", SUMMA, n, n, n, p, opts)
	want := (1-0.25)*float64(n*n)/4 + (1-0.25)*float64(n*n)/4
	if math.Abs(res.CommCost()-want) > 1e-9 {
		t.Errorf("SUMMA cost %v, want %v", res.CommCost(), want)
	}
}

func TestSUMMAErrors(t *testing.T) {
	a := matrix.Random(8, 7, 1)
	b := matrix.Random(7, 8, 2)
	if _, err := SUMMA(a, b, 4, bwOpts()); err == nil {
		t.Fatal("expected divisibility error for n2=7 on 2x2 grid")
	}
	opts := bwOpts()
	opts.Grid = grid.Grid{P1: 2, P2: 2, P3: 1}
	if _, err := SUMMA(matrix.Random(8, 8, 1), matrix.Random(8, 8, 2), 4, opts); err == nil {
		t.Fatal("expected P2=1 requirement error")
	}
}

func TestCannonCorrectness(t *testing.T) {
	for _, c := range []struct{ n1, n2, n3, p int }{
		{8, 8, 8, 4}, {12, 8, 4, 16}, {6, 6, 6, 9}, {5, 5, 5, 1},
	} {
		verify(t, "Cannon", Cannon, c.n1, c.n2, c.n3, c.p, bwOpts())
	}
}

func TestCannonCostFormula(t *testing.T) {
	// Skew (one A block + one B block) plus q−1 shifts of each.
	n, p, q := 12, 9, 3
	res := verify(t, "Cannon", Cannon, n, n, n, p, bwOpts())
	blk := float64(n * n / (q * q))
	want := 2 * blk * float64(q-1+1) // q−1 shifts + 1 skew, each A and B
	if math.Abs(res.CommCost()-want) > 1e-9 {
		t.Errorf("Cannon cost %v, want %v", res.CommCost(), want)
	}
}

func TestCannonErrors(t *testing.T) {
	if _, err := Cannon(matrix.Random(8, 8, 1), matrix.Random(8, 8, 2), 5, bwOpts()); err == nil {
		t.Fatal("expected non-square P error")
	}
	if _, err := Cannon(matrix.Random(7, 7, 1), matrix.Random(7, 7, 2), 4, bwOpts()); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestTwoPointFiveDCorrectness(t *testing.T) {
	for _, c := range []struct{ n, p, layers int }{
		{8, 4, 1},   // degenerates to Cannon
		{8, 8, 2},   // q=2, c=2: 3D limit
		{16, 32, 2}, // q=4, c=2
		{12, 36, 1}, // q=6 c=1
		{27, 27, 3}, // q=3, c=3: full 3D
	} {
		opts := bwOpts()
		opts.Layers = c.layers
		verify(t, "TwoPointFiveD", TwoPointFiveD, c.n, c.n, c.n, c.p, opts)
	}
}

func TestTwoPointFiveDAutoLayers(t *testing.T) {
	if got := ChooseLayers(27); got != 3 {
		t.Errorf("ChooseLayers(27) = %d, want 3", got)
	}
	if got := ChooseLayers(4); got != 1 {
		t.Errorf("ChooseLayers(4) = %d, want 1", got)
	}
	if got := ChooseLayers(32); got != 2 {
		t.Errorf("ChooseLayers(32) = %d, want 2", got)
	}
	verify(t, "TwoPointFiveD", TwoPointFiveD, 12, 12, 12, 27, bwOpts())
}

// TestTwoPointFiveDReplicationReducesComm is the memory/bandwidth
// trade-off: more layers, less communication (and more memory).
func TestTwoPointFiveDReplicationReducesComm(t *testing.T) {
	// Replication pays off only when the Cannon phase dominates the
	// replication overhead (q/c ≫ 1): P = 256 admits c=1 (q=16) and c=4
	// (q=8, 2 rounds per layer), where the c=4 volume is strictly lower.
	n := 32
	p := 256
	o1 := bwOpts()
	o1.Layers = 1
	r1 := verify(t, "TwoPointFiveD", TwoPointFiveD, n, n, n, p, o1)
	o4 := bwOpts()
	o4.Layers = 4
	r4 := verify(t, "TwoPointFiveD", TwoPointFiveD, n, n, n, p, o4)
	if r4.CommCost() >= r1.CommCost() {
		t.Errorf("c=4 comm %v not below c=1 comm %v", r4.CommCost(), r1.CommCost())
	}
	if r4.Stats.MaxPeakMemory <= r1.Stats.MaxPeakMemory {
		t.Errorf("c=4 memory %v not above c=1 memory %v", r4.Stats.MaxPeakMemory, r1.Stats.MaxPeakMemory)
	}
}

func TestTwoPointFiveDErrors(t *testing.T) {
	sq := matrix.Random(8, 8, 1)
	if _, err := TwoPointFiveD(matrix.Random(8, 4, 1), matrix.Random(4, 8, 2), 4, bwOpts()); err == nil {
		t.Fatal("expected square-matrix error")
	}
	opts := bwOpts()
	opts.Layers = 3
	if _, err := TwoPointFiveD(sq, sq, 4, opts); err == nil {
		t.Fatal("expected c|P error")
	}
	opts.Layers = 2
	if _, err := TwoPointFiveD(sq, sq, 4, opts); err == nil {
		t.Fatal("expected P=q²c error")
	}
}

// TestFigure1PhaseBreakdown reproduces the structure of the paper's
// Figure 1: on a 3×3×3 grid, each processor's communication splits into the
// three collectives with volumes (1−1/p)·(block size) each.
func TestFigure1PhaseBreakdown(t *testing.T) {
	n := 18 // blocks are 6×6 = 36 words, divisible by the fiber size 3
	p := 27
	d := core.Square(n)
	g, err := grid.CaseGrid(d, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := bwOpts()
	opts.Grid = g
	res := verify(t, "Alg1", Alg1, n, n, n, p, opts)
	blockWords := float64(n / 3 * n / 3)
	wantPerPhase := (1 - 1.0/3) * blockWords
	for _, phase := range []string{PhaseGatherA, PhaseGatherB, PhaseReduceC} {
		if got := res.Stats.MaxPhaseRecv(phase); math.Abs(got-wantPerPhase) > 1e-9 {
			t.Errorf("phase %s recv %v, want %v", phase, got, wantPerPhase)
		}
	}
}

// TestAlg1MemoryFootprint checks the §6.2 claim that Algorithm 1's local
// memory is the gathered panels plus the C block — i.e. D — up to the
// initially owned shares.
func TestAlg1MemoryFootprint(t *testing.T) {
	d := core.NewDims(96, 24, 6)
	for _, p := range []int{3, 36, 512} {
		g, err := grid.CaseGrid(d, p)
		if err != nil {
			t.Fatal(err)
		}
		opts := bwOpts()
		opts.Grid = g
		res := verify(t, "Alg1", Alg1, 96, 24, 6, p, opts)
		upper := core.D(d, p) + d.InputOutputWords()/float64(p) + 1
		if res.Stats.MaxPeakMemory > upper {
			t.Errorf("P=%d peak memory %v exceeds D + owned = %v", p, res.Stats.MaxPeakMemory, upper)
		}
		if res.Stats.MaxPeakMemory < core.D(d, p)-1 {
			t.Errorf("P=%d peak memory %v below D = %v (accounting broken?)", p, res.Stats.MaxPeakMemory, core.D(d, p))
		}
	}
}

// TestBaselinesNeverBeatBound: no algorithm communicates less than
// Theorem 3 allows.
func TestBaselinesNeverBeatBound(t *testing.T) {
	n := 24
	d := core.Square(n)
	p := 16
	for _, e := range Registry() {
		res, err := e.Run(matrix.Random(n, n, 3), matrix.Random(n, n, 4), p, bwOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		bound := core.LowerBound(d, p)
		if res.CommCost() < bound-1e-9 {
			t.Errorf("%s cost %v beats the bound %v", e.Name, res.CommCost(), bound)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, float64) {
		res := verify(t, "Alg1", Alg1, 13, 11, 9, 8, Opts{Config: machine.Config{Alpha: 2, Beta: 1, Gamma: 0.1}})
		return res.Stats.CriticalPath, res.CommCost()
	}
	cp1, cc1 := run()
	for i := 0; i < 3; i++ {
		cp, cc := run()
		if cp != cp1 || cc != cc1 {
			t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", cp, cc, cp1, cc1)
		}
	}
}

func TestRegistryNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || names[e.Name] {
			t.Fatalf("bad registry entry %q", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"Alg1", "AllToAll3D", "OneD", "SUMMA", "Cannon", "TwoPointFiveD"} {
		if !names[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
}

// TestRegistryRejectsNonPositiveP: every algorithm refuses P < 1 with
// core.ErrBadProcessorCount before any grid divides by it, rather than
// panicking.
func TestRegistryRejectsNonPositiveP(t *testing.T) {
	a, b := matrix.Random(8, 8, 1), matrix.Random(8, 8, 2)
	for _, e := range Registry() {
		for _, p := range []int{0, -1} {
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Errorf("%s at P=%d panicked: %v", e.Name, p, v)
					}
				}()
				if _, err := e.Run(a, b, p, bwOpts()); !errors.Is(err, core.ErrBadProcessorCount) {
					t.Errorf("%s at P=%d: err = %v, want ErrBadProcessorCount", e.Name, p, err)
				}
			}()
		}
	}
}

func TestResultNameAndGrid(t *testing.T) {
	res := verify(t, "Alg1", Alg1, 8, 8, 8, 8, bwOpts())
	if res.Name != "Alg1" || res.Grid.Size() != 8 {
		t.Fatalf("result metadata: %q %v", res.Name, res.Grid)
	}
	if !strings.Contains(res.Grid.String(), "x") {
		t.Fatal("grid string")
	}
}
