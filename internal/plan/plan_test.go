package plan

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func relEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestCrossoverPinnedRectangular pins the §6.2 threshold against a
// hand-computed rectangular example: dims 9600×2400×600 and M = 40000
// words give mnk = 1.3824·10¹⁰ and M^{3/2} = 8·10⁶, so
// P* = (8/27)·1728 = 512 exactly. Sorted dims 9600 ≥ 2400 ≥ 600 put the
// case boundaries at m/n = 4 and mn/k² = 64, and the one-copy memory
// floor at ⌈(mn+mk+nk)/M⌉ = ⌈30240000/40000⌉ = 756.
func TestCrossoverPinnedRectangular(t *testing.T) {
	req := Request{
		Dims: core.NewDims(9600, 2400, 600),
		Mem:  40000,
		PMin: 64, PMax: 1024,
	}
	sum, err := Summarize(req)
	if err != nil {
		t.Fatal(err)
	}
	if !relEq(sum.CrossoverP, 512, 1e-9) {
		t.Errorf("CrossoverP = %v, want 512", sum.CrossoverP)
	}
	if sum.CaseBoundaries != [2]float64{4, 64} {
		t.Errorf("CaseBoundaries = %v, want [4 64]", sum.CaseBoundaries)
	}
	if sum.MemoryFloorP != 756 {
		t.Errorf("MemoryFloorP = %v, want 756", sum.MemoryFloorP)
	}
	if !sum.CrossoverInRange {
		t.Error("CrossoverInRange = false, want true (512 ∈ (64, 1024])")
	}
	if sum.Points != 961 {
		t.Errorf("Points = %d, want 961", sum.Points)
	}
}

// TestCrossoverObservedSquare pins the swept crossover on a square
// hand-computed example: n = 2000, M = 10⁴ gives
// P* = (8/27)·8·10⁹/10⁶ = 64000/27 ≈ 2370.37, so a unit-stride sweep
// of [2300, 2400] must flip from memory-dependent to independent at
// P = 2371 — at 2370 the bounds are 2mnk/(P√M) ≈ 67510 vs
// D = 3(mnk/P)^{2/3} ≈ 67507, at 2371 the order reverses. The one-copy
// floor is 3n²/M = 1200 < 2300, so every memory-dependent point sits in
// the perfect-strong-scaling range; and Algorithm 1's footprint
// D > 66000 ≫ M means no grid fits anywhere in the sweep.
func TestCrossoverObservedSquare(t *testing.T) {
	req := Request{
		Dims: core.NewDims(2000, 2000, 2000),
		Mem:  1e4,
		PMin: 2300, PMax: 2400,
	}
	sum, pts, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ObservedCrossoverP != 2371 {
		t.Fatalf("ObservedCrossoverP = %d, want 2371", sum.ObservedCrossoverP)
	}
	if !relEq(sum.CrossoverP, 64000.0/27.0, 1e-12) {
		t.Errorf("CrossoverP = %v, want 64000/27", sum.CrossoverP)
	}
	if sum.MemoryFloorP != 1200 {
		t.Errorf("MemoryFloorP = %v, want 1200", sum.MemoryFloorP)
	}
	if len(pts) != 101 {
		t.Fatalf("got %d points, want 101", len(pts))
	}
	crossings := 0
	for i, pt := range pts {
		if pt.P != 2300+i {
			t.Fatalf("pts[%d].P = %d, want %d", i, pt.P, 2300+i)
		}
		wantMD := pt.P <= 2370
		if pt.MemoryDependent != wantMD {
			t.Errorf("P=%d MemoryDependent = %v, want %v", pt.P, pt.MemoryDependent, wantMD)
		}
		if pt.PerfectScaling != wantMD {
			t.Errorf("P=%d PerfectScaling = %v, want %v", pt.P, pt.PerfectScaling, wantMD)
		}
		if pt.Crossover {
			crossings++
			if pt.P != 2371 {
				t.Errorf("Crossover flag on P=%d, want 2371", pt.P)
			}
		}
		if pt.Fits || pt.Grid != nil || pt.Time != 0 {
			t.Errorf("P=%d claims a feasible grid under M=10⁴ (needs ≥ D ≈ 6.7·10⁴)", pt.P)
		}
		if pt.Case != 3 || pt.TightConstant != 3 {
			t.Errorf("P=%d case/constant = %d/%v, want 3/3", pt.P, pt.Case, pt.TightConstant)
		}
		if pt.Binding < pt.MemBound || pt.Binding+1e-9 < pt.Bound {
			t.Errorf("P=%d binding %v below a bound (mem %v, mi %v)", pt.P, pt.Binding, pt.MemBound, pt.Bound)
		}
	}
	if crossings != 1 {
		t.Errorf("%d points carry the Crossover flag, want 1", crossings)
	}
}

// TestCrossoverInCaseTwo pins a switch that happens in Case 2, where the
// Case 3 formula does not place it: 1000×1000×10 puts the case boundaries
// at m/n = 1 and mn/k² = 10⁴, so [2000, 3000] is all Case 2. With M = 100,
// md·P = 2mnk/√M = 2·10⁶ and D·P = 2k√(mnP) + mn = 2·10⁴·√P + 10⁶ meet
// at √P = 50: at P = 2500 both bounds are exactly 800, so 2499 is the last
// memory-dependent point and 2500 the switch. The Case 3 threshold
// (8/27)·mnk/M^{3/2} ≈ 2963 lies in range too, 463 points off.
func TestCrossoverInCaseTwo(t *testing.T) {
	req := Request{Dims: core.NewDims(1000, 1000, 10), Mem: 100, PMin: 2000, PMax: 3000}
	sum, pts, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ObservedCrossoverP != 2500 {
		t.Errorf("ObservedCrossoverP = %d, want 2500", sum.ObservedCrossoverP)
	}
	if !relEq(sum.CrossoverP, 8e4/27, 1e-12) || !sum.CrossoverInRange {
		t.Errorf("CrossoverP = %v (in range %v), want 8·10⁴/27 in range", sum.CrossoverP, sum.CrossoverInRange)
	}
	for _, pt := range pts {
		if pt.Case != 2 {
			t.Fatalf("P=%d is Case %d, want 2", pt.P, pt.Case)
		}
		if want := pt.P < 2500; pt.MemoryDependent != want {
			t.Errorf("P=%d MemoryDependent = %v, want %v", pt.P, pt.MemoryDependent, want)
		}
		if want := pt.P == 2500; pt.Crossover != want {
			t.Errorf("P=%d Crossover = %v, want %v", pt.P, pt.Crossover, want)
		}
	}
}

// TestCrossoverMatchesPairwise holds the bisected switch to its pairwise
// definition over random shapes, budgets and ranges, strided and log2:
// ObservedCrossoverP is the first swept P whose binding bound is
// memory-independent after a memory-dependent one (0 when none is), and
// that point, only that one, carries the Crossover flag. Budgets are
// drawn around the M at which the two bounds meet inside the range, so
// most sweeps witness a switch, in all three cases.
func TestCrossoverMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	logUniform := func(hi float64) int { return int(math.Exp(rng.Float64() * math.Log(hi))) }
	switches := 0
	var cases [4]int // by the case the switch happens in
	for trial := 0; trial < 400; trial++ {
		req := Request{Dims: core.NewDims(logUniform(4096), logUniform(4096), logUniform(4096)), PMin: logUniform(1 << 16)}
		if rng.IntN(3) == 0 {
			req.Log2 = true
			req.PMax = req.PMin << rng.IntN(12)
		} else {
			req.PStep = 1 + rng.IntN(64)
			req.PMax = req.PMin + req.PStep*rng.IntN(200)
		}
		// md = D at P* when √M = 2mnk/(P*·D(P*)).
		pStar := req.PMin + rng.IntN(req.PMax-req.PMin+1)
		root := 2 * req.Dims.Flops() / (float64(pStar) * core.D(req.Dims, pStar))
		req.Mem = root * root * math.Exp(rng.Float64()-0.5)
		sum, pts, err := Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		want, flagged := 0, 0
		for i, pt := range pts {
			if want == 0 && i > 0 && pts[i-1].MemoryDependent && !pt.MemoryDependent {
				want = pt.P
			}
			if pt.Crossover {
				flagged++
				if pt.P != want {
					t.Errorf("%+v: Crossover flag on P=%d, pairwise switch at %d", req, pt.P, want)
				}
			}
		}
		if sum.ObservedCrossoverP != want {
			t.Errorf("%+v: ObservedCrossoverP = %d, pairwise switch at %d", req, sum.ObservedCrossoverP, want)
		}
		if flagged != min(want, 1) {
			t.Errorf("%+v: %d points flagged, want %d", req, flagged, min(want, 1))
		}
		if want != 0 {
			switches++
			cases[core.CaseOf(req.Dims, want)]++
		}
	}
	if switches < 200 || cases[1] == 0 || cases[2] == 0 || cases[3] == 0 {
		t.Errorf("%d of 400 sweeps switch (by case %v): the generator should reach every case", switches, cases[1:])
	}
}

// TestLog2Sweep checks the geometric range: 1, 2, 4, …, 4096 is 13
// points, and with n = 2000, M = 10⁴ the crossover (≈ 2370.37) is first
// witnessed at the swept point 4096 (2048 is still memory-dependent).
func TestLog2Sweep(t *testing.T) {
	req := Request{
		Dims: core.NewDims(2000, 2000, 2000),
		Mem:  1e4,
		PMin: 1, PMax: 4096,
		Log2: true,
	}
	if n := req.Points(); n != 13 {
		t.Fatalf("Points = %d, want 13", n)
	}
	sum, pts, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ObservedCrossoverP != 4096 {
		t.Errorf("ObservedCrossoverP = %d, want 4096", sum.ObservedCrossoverP)
	}
	for i, pt := range pts {
		if pt.P != 1<<i {
			t.Fatalf("pts[%d].P = %d, want %d", i, pt.P, 1<<i)
		}
	}
	last := pts[len(pts)-1]
	if !last.Crossover || last.MemoryDependent {
		t.Errorf("P=4096: Crossover=%v MemoryDependent=%v, want true/false", last.Crossover, last.MemoryDependent)
	}
}

// TestFeasiblePoint checks the schedule fields once memory admits a grid:
// at P = 65536 the n = 2000 footprint 3(n³/P)^{2/3} ≈ 7390 fits in 10⁴,
// and under the default bandwidth-only machine the predicted time reads
// directly in words, at or above the memory-independent bound.
func TestFeasiblePoint(t *testing.T) {
	req := Request{
		Dims: core.NewDims(2000, 2000, 2000),
		Mem:  1e4,
		PMin: 65536, PMax: 65536,
	}
	_, pts, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if !pt.Fits || pt.Grid == nil {
		t.Fatalf("P=65536 should fit: %+v", pt)
	}
	if pt.MemoryCost > req.Mem {
		t.Errorf("MemoryCost %v exceeds budget %v", pt.MemoryCost, req.Mem)
	}
	if pt.Time != pt.Words || pt.Words <= 0 {
		t.Errorf("bandwidth-only Time %v != Words %v", pt.Time, pt.Words)
	}
	if pt.Words+1e-9 < pt.Bound {
		t.Errorf("predicted words %v below the lower bound %v", pt.Words, pt.Bound)
	}
	if pt.Speedup != 0 || pt.Efficiency != 0 {
		t.Errorf("γ=0 speedup/efficiency = %v/%v, want 0", pt.Speedup, pt.Efficiency)
	}

	req.Config = machine.Config{Alpha: 1, Beta: 1, Gamma: 1}
	_, pts, err = Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Speedup <= 0 || pts[0].Efficiency <= 0 {
		t.Errorf("γ>0 speedup/efficiency = %v/%v, want > 0", pts[0].Speedup, pts[0].Efficiency)
	}
}

// TestValidate walks the rejection taxonomy.
func TestValidate(t *testing.T) {
	ok := Request{Dims: core.NewDims(100, 100, 100), Mem: 1e6, PMin: 1, PMax: 8}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Request)
		want error
	}{
		{"zero mem", func(r *Request) { r.Mem = 0 }, core.ErrBadPlanRange},
		{"negative mem", func(r *Request) { r.Mem = -5 }, core.ErrBadPlanRange},
		{"infinite mem", func(r *Request) { r.Mem = math.Inf(1) }, core.ErrBadPlanRange},
		{"mem overflowing the crossover", func(r *Request) { r.Mem = 1e-250 }, core.ErrBadPlanRange},
		{"mem overflowing the memory floor", func(r *Request) { r.Mem = 5e-324 }, core.ErrBadPlanRange},
		{"zero pmin", func(r *Request) { r.PMin = 0 }, core.ErrBadPlanRange},
		{"inverted range", func(r *Request) { r.PMin = 8; r.PMax = 4 }, core.ErrBadPlanRange},
		{"negative stride", func(r *Request) { r.PStep = -1 }, core.ErrBadPlanRange},
		{"too many points", func(r *Request) { r.PMax = 100; r.MaxPoints = 10 }, core.ErrBadPlanRange},
		{"bad dims", func(r *Request) { r.Dims = core.NewDims(0, 1, 1) }, core.ErrBadDims},
		{"negative beta", func(r *Request) { r.Config = machine.Config{Beta: -1} }, core.ErrBadOpts},
		{"NaN gamma", func(r *Request) { r.Config = machine.Config{Beta: 1, Gamma: math.NaN()} }, core.ErrBadOpts},
		{"unknown topology", func(r *Request) { r.TopoSpec = "bogus" }, core.ErrBadTopology},
		{"unknown placement", func(r *Request) { r.TopoSpec = "flat"; r.Place = "bogus" }, core.ErrBadTopology},
		{"fixed-size topology over a range", func(r *Request) {
			r.PMin, r.PMax = 64, 128
			r.TopoSpec = "torus=4x4x4"
		}, core.ErrBadPlanRange},
	}
	for _, tc := range cases {
		r := ok
		tc.mut(&r)
		if err := r.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSweepChunks checks the streaming contract: chunks arrive in index
// order with the requested size (last one ragged) and concatenate to the
// full sweep.
func TestSweepChunks(t *testing.T) {
	req := Request{Dims: core.NewDims(100, 100, 100), Mem: 1e6, PMin: 1, PMax: 100}
	var sizes []int
	var all []Point
	_, err := Planner{}.Sweep(context.Background(), req, 16, func(chunk []Point) error {
		sizes = append(sizes, len(chunk))
		all = append(all, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 7 {
		t.Fatalf("got %d chunks (%v), want 7", len(sizes), sizes)
	}
	for i, n := range sizes {
		want := 16
		if i == 6 {
			want = 4
		}
		if n != want {
			t.Errorf("chunk %d has %d points, want %d", i, n, want)
		}
	}
	for i, pt := range all {
		if pt.P != i+1 {
			t.Fatalf("all[%d].P = %d, want %d", i, pt.P, i+1)
		}
	}
}

// TestSweepCancel checks a cancelled context aborts the sweep with the
// context's error.
func TestSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Dims: core.NewDims(100, 100, 100), Mem: 1e6, PMin: 1, PMax: 1000}
	_, err := Planner{}.Sweep(ctx, req, 0, func([]Point) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestPointMemo checks the memo hook carries topology-priced points across
// sweeps — keys are range-independent, so a second overlapping range
// computes nothing new — while the range-dependent Crossover flag is still
// recomputed.
func TestPointMemo(t *testing.T) {
	var mu sync.Mutex
	store := map[string]Point{}
	computes := 0
	pl := Planner{PointMemo: func(key string, compute func() (Point, error)) (Point, error) {
		mu.Lock()
		pt, hit := store[key]
		mu.Unlock()
		if hit {
			return pt, nil
		}
		pt, err := compute()
		if err != nil {
			return Point{}, err
		}
		mu.Lock()
		computes++
		store[key] = pt
		mu.Unlock()
		return pt, nil
	}}

	req := Request{Dims: core.NewDims(2000, 2000, 2000), Mem: 1e4, PMin: 2300, PMax: 2400, TopoSpec: "flat"}
	if _, _, err := pl.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if computes != 101 {
		t.Fatalf("first sweep computed %d points, want 101", computes)
	}
	sub := req
	sub.PMin = 2350
	_, pts, err := pl.Run(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 101 {
		t.Errorf("overlapping sweep recomputed: %d total computes, want 101", computes)
	}
	found := false
	for _, pt := range pts {
		if pt.Crossover {
			found = pt.P == 2371
		}
	}
	if !found {
		t.Error("cached sweep lost the Crossover flag at P=2371")
	}
}

// TestPointMemoScope: the memo wraps exactly the topology-priced points.
// A closed-form point costs less to compute than to cache, so closed-form
// sweeps never call PointMemo, and topology sweeps call it once per point.
func TestPointMemoScope(t *testing.T) {
	var calls atomic.Int64
	pl := Planner{PointMemo: func(_ string, compute func() (Point, error)) (Point, error) {
		calls.Add(1)
		return compute()
	}}
	base := Request{Dims: core.NewDims(512, 512, 512), Mem: 1e6, PMin: 8, PMax: 4096, Log2: true,
		Config: machine.Config{Alpha: 2, Beta: 1, Gamma: 1.0 / 16}}
	for _, c := range []struct {
		spec string
		want int64
	}{{"", 0}, {"flat", 10}, {"twolevel=4", 10}} {
		calls.Store(0)
		req := base
		req.TopoSpec = c.spec
		_, pts, err := pl.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 10 || calls.Load() != c.want {
			t.Errorf("TopoSpec %q: %d points, %d PointMemo calls, want 10 and %d", c.spec, len(pts), calls.Load(), c.want)
		}
	}
}

// TestOverflowingPredictionIsBadOpts: an α, β or γ so large that a
// predicted time leaves float64 fails the point with ErrBadOpts instead of
// producing a point JSON cannot encode; a negative one fails Validate with
// the same kind before any point is computed.
func TestOverflowingPredictionIsBadOpts(t *testing.T) {
	for _, cfg := range []machine.Config{
		{Alpha: 1e308, Beta: 1}, {Alpha: -1e308, Beta: 1},
		{Beta: 1e308}, {Beta: -1e308}, {Beta: 1, Gamma: 1e308}, {Beta: 1, Gamma: -1e308},
	} {
		for _, spec := range []string{"", "flat"} {
			req := Request{Dims: core.NewDims(64, 64, 64), Mem: 1e9, PMin: 1, PMax: 64, Config: cfg, TopoSpec: spec}
			_, _, err := Run(context.Background(), req)
			if !errors.Is(err, core.ErrBadOpts) {
				t.Errorf("config %+v topology %q: err = %v, want ErrBadOpts", cfg, spec, err)
			}
		}
	}
}

// TestTopologyPlan checks the topology-priced path: a flat fabric matches
// the uniform model exactly (slowdown 1) and a shared-NIC two-level
// fabric degrades it.
func TestTopologyPlan(t *testing.T) {
	req := Request{
		Dims: core.NewDims(64, 64, 64),
		Mem:  1e9,
		PMin: 8, PMax: 64,
		Log2:     true,
		Config:   machine.Config{Alpha: 2, Beta: 1, Gamma: 1.0 / 16},
		TopoSpec: "flat",
	}
	sum, pts, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Topology != "flat" || sum.Placement != "contiguous" {
		t.Errorf("summary fabric = %q/%q", sum.Topology, sum.Placement)
	}
	for _, pt := range pts {
		if pt.Slowdown != 1 {
			t.Errorf("flat P=%d slowdown = %v, want 1", pt.P, pt.Slowdown)
		}
	}

	req.TopoSpec = "twolevel=4"
	_, tl, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range tl {
		if pt.Slowdown < 1 {
			t.Errorf("twolevel P=%d slowdown = %v, want ≥ 1", pt.P, pt.Slowdown)
		}
		if pt.Time < pts[i].Time {
			t.Errorf("twolevel P=%d time %v below flat %v", pt.P, pt.Time, pts[i].Time)
		}
	}
}

// TestTopologyPlanDatacenterP sweeps a shared-NIC fabric across P = 8192 …
// 65536, every point priced through the O(links) analytic loads and the
// O(hops) Charge walk. The sweep exists to pin that datacenter-scale
// topology planning stays feasible.
func TestTopologyPlanDatacenterP(t *testing.T) {
	req := Request{
		Dims: core.NewDims(4096, 4096, 4096),
		Mem:  1e9,
		PMin: 8192, PMax: 65536,
		Log2:     true,
		Config:   machine.Config{Alpha: 2, Beta: 1, Gamma: 1.0 / 16},
		TopoSpec: "twolevel=64",
		Place:    "roundrobin",
	}
	_, pts, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for _, pt := range pts {
		if !pt.Fits {
			t.Errorf("P=%d does not fit", pt.P)
			continue
		}
		if pt.Slowdown < 1 {
			t.Errorf("P=%d slowdown = %v, want ≥ 1", pt.P, pt.Slowdown)
		}
		if pt.Time <= 0 || math.IsInf(pt.Time, 0) || math.IsNaN(pt.Time) {
			t.Errorf("P=%d time = %v", pt.P, pt.Time)
		}
	}
}

// BenchmarkSweep is plan-cold's request without HTTP or encoding: 2000³
// over the 5000 P from 100000 to 104999, with a budget of its own each
// iteration, through Planner.Sweep in 256-point chunks.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := Request{Dims: core.Square(2000), Mem: 10000 + float64(i), PMin: 100000, PMax: 104999}
		if _, err := (Planner{}).Sweep(context.Background(), req, 256, func([]Point) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
