package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, rel float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= rel*scale
}

func TestSorted(t *testing.T) {
	cases := []struct {
		d       Dims
		m, n, k int
	}{
		{Dims{9600, 2400, 600}, 9600, 2400, 600},
		{Dims{600, 2400, 9600}, 9600, 2400, 600},
		{Dims{2400, 9600, 600}, 9600, 2400, 600},
		{Dims{5, 5, 5}, 5, 5, 5},
		{Dims{1, 2, 2}, 2, 2, 1},
	}
	for _, c := range cases {
		m, n, k := c.d.Sorted()
		if m != c.m || n != c.n || k != c.k {
			t.Errorf("%v sorted = %d,%d,%d", c.d, m, n, k)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Dims{1, 1, 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dims{0, 1, 1}).Validate(); err == nil {
		t.Fatal("expected error for zero dimension")
	}
	if err := (Dims{3, -1, 2}).Validate(); err == nil {
		t.Fatal("expected error for negative dimension")
	}
}

// TestValidateOverflow is the regression test for the silent-precision bug:
// shapes whose products exceed 2^53 used to pass Validate and round in the
// float64 bound arithmetic; now they are rejected with ErrBadDims.
func TestValidateOverflow(t *testing.T) {
	const big = 1 << 27 // big² = 2^54 > 2^53
	reject := []Dims{
		{big, big, 1},               // pairwise n1·n2 overflows
		{1, big, big},               // pairwise n2·n3 overflows
		{big, 1, big},               // pairwise n1·n3 overflows
		{1 << 18, 1 << 18, 1 << 18}, // triple product 2^54 overflows, pairwise fine
	}
	for _, d := range reject {
		err := d.Validate()
		if err == nil {
			t.Errorf("%v: expected overflow error", d)
			continue
		}
		if !errors.Is(err, ErrBadDims) {
			t.Errorf("%v: error %v does not wrap ErrBadDims", d, err)
		}
	}
	accept := []Dims{
		{1 << 26, 1 << 27, 1},       // n1·n2 = 2^53 exactly
		{1 << 17, 1 << 18, 1 << 18}, // triple product 2^53 exactly
		{94906265, 94906265, 1},     // largest square under 2^53
	}
	for _, d := range accept {
		if err := d.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", d, err)
		}
	}
}

func TestSizesAndFlops(t *testing.T) {
	d := Dims{2, 3, 4}
	if d.SizeA() != 6 || d.SizeB() != 12 || d.SizeC() != 8 {
		t.Fatalf("sizes %v %v %v", d.SizeA(), d.SizeB(), d.SizeC())
	}
	if d.Flops() != 24 || d.InputOutputWords() != 26 {
		t.Fatalf("flops %v io %v", d.Flops(), d.InputOutputWords())
	}
	if Square(7) != (Dims{7, 7, 7}) {
		t.Fatal("Square wrong")
	}
	if d.String() != "2x3x4" {
		t.Fatalf("String = %q", d.String())
	}
}

// TestCaseOfPaperExample uses the paper's §5.3 example: 9600×2400×600,
// thresholds m/n = 4 and mn/k² = 64, with P = 3, 36, 512 falling in
// cases 1, 2, 3.
func TestCaseOfPaperExample(t *testing.T) {
	d := Dims{9600, 2400, 600}
	t1, t2 := Thresholds(d)
	if t1 != 4 || t2 != 64 {
		t.Fatalf("thresholds = %v, %v; want 4, 64", t1, t2)
	}
	for _, c := range []struct {
		p    int
		want Case
	}{
		{1, Case1}, {3, Case1}, {4, Case1}, {5, Case2}, {36, Case2},
		{64, Case2}, {65, Case3}, {512, Case3},
	} {
		if got := CaseOf(d, c.p); got != c.want {
			t.Errorf("CaseOf(P=%d) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCaseString(t *testing.T) {
	if Case1.String() != "Case 1 (1D)" || Case2.String() != "Case 2 (2D)" || Case3.String() != "Case 3 (3D)" {
		t.Fatal("Case metadata wrong")
	}
	if Case(9).String() != "Case(9)" {
		t.Fatal("unknown case String wrong")
	}
}

func TestSquareAlwaysCase3(t *testing.T) {
	for _, p := range []int{1, 2, 8, 1000} {
		if CaseOf(Square(100), p) == Case3 == false && p > 1 {
			t.Errorf("square multiplication at P=%d not Case 3", p)
		}
	}
}

// TestLemma2ClosedMatchesNumeric asserts the closed-form case solutions
// agree with the independent water-filling solver across random shapes.
func TestLemma2ClosedMatchesNumeric(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		d := Dims{int(aRaw%60) + 1, int(bRaw%60) + 1, int(cRaw%60) + 1}
		p := int(pRaw%128) + 1
		closed := Lemma2Closed(d, p)
		numeric := Lemma2Numeric(d, p)
		return approx(closed.X1, numeric.X1, 1e-9) &&
			approx(closed.X2, numeric.X2, 1e-9) &&
			approx(closed.X3, numeric.X3, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLemma2KKT machine-checks the proof of Lemma 2: at the closed-form
// optimum, the paper's dual variables satisfy all KKT conditions.
func TestLemma2KKT(t *testing.T) {
	shapes := []Dims{
		{9600, 2400, 600}, {100, 100, 100}, {1000, 10, 10},
		{64, 32, 2}, {7, 5, 3}, {1, 1, 1}, {500, 500, 1},
	}
	ps := []int{1, 2, 3, 4, 7, 16, 64, 100, 512, 4096}
	for _, d := range shapes {
		for _, p := range ps {
			res := Lemma2KKTResiduals(d, p)
			tol := 1e-7 * (1 + d.Flops())
			if res.Max() > tol {
				t.Errorf("dims %v P=%d: KKT residuals %+v", d, p, res)
			}
		}
	}
}

func TestLemma2SolutionContinuityAtThresholds(t *testing.T) {
	// At P = m/n and P = mn/k² adjacent case formulas agree (the paper
	// notes the optimum is continuous in P).
	d := Dims{9600, 2400, 600} // thresholds 4 and 64
	m, n, k := d.Sorted()
	fm, fn, fk := float64(m), float64(n), float64(k)

	// P = 4: Case 1 and Case 2 formulas.
	c1 := Lemma2Solution{X1: fn * fk, X2: fm * fk / 4, X3: fm * fn / 4}
	c2 := Lemma2Solution{X1: math.Sqrt(fm * fn * fk * fk / 4), X2: math.Sqrt(fm * fn * fk * fk / 4), X3: fm * fn / 4}
	if !approx(c1.Sum(), c2.Sum(), 1e-12) {
		t.Errorf("discontinuity at P=m/n: %v vs %v", c1.Sum(), c2.Sum())
	}

	// P = 64: Case 2 and Case 3 formulas.
	c2b := 2*math.Sqrt(fm*fn*fk*fk/64) + fm*fn/64
	c3 := 3 * math.Pow(fm*fn*fk/64, 2.0/3.0)
	if !approx(c2b, c3, 1e-12) {
		t.Errorf("discontinuity at P=mn/k²: %v vs %v", c2b, c3)
	}
}

func TestDAndLowerBound(t *testing.T) {
	d := Dims{9600, 2400, 600}
	// Case 1, P=3: D = (mn+mk)/3 + nk.
	wantD := (9600.0*2400+9600*600)/3 + 2400*600
	if got := D(d, 3); !approx(got, wantD, 1e-12) {
		t.Errorf("D(P=3) = %v, want %v", got, wantD)
	}
	wantLB := wantD - d.InputOutputWords()/3
	if got := LowerBound(d, 3); !approx(got, wantLB, 1e-12) {
		t.Errorf("LowerBound(P=3) = %v, want %v", got, wantLB)
	}
}

// TestAttainableEqualsLowerBound is the §5.2 tightness claim at the level
// of formulas: the algebraic cost of Algorithm 1 with the optimal grid
// equals the lower bound in every case.
func TestAttainableEqualsLowerBound(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		d := Dims{int(aRaw%100) + 1, int(bRaw%100) + 1, int(cRaw%100) + 1}
		p := int(pRaw) + 1
		return approx(AttainableCost(d, p), LowerBound(d, p), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDMonotonicNonincreasingInP(t *testing.T) {
	// D — the per-processor data footprint — never increases with more
	// processors, and the *total* communication P·LowerBound never
	// decreases. (LowerBound itself is not monotone: it is 0 at P = 1 and
	// grows through Case 1, where every processor still needs all of the
	// smallest matrix.)
	d := Dims{9600, 2400, 600}
	prevD := math.Inf(1)
	prevTotal := 0.0
	for p := 1; p <= 65536; p *= 2 {
		dv := D(d, p)
		if dv > prevD*(1+1e-12) {
			t.Fatalf("D increased at P=%d: %v > %v", p, dv, prevD)
		}
		total := float64(p) * LowerBound(d, p)
		if total < prevTotal*(1-1e-12) {
			t.Fatalf("total communication decreased at P=%d: %v < %v", p, total, prevTotal)
		}
		prevD, prevTotal = dv, total
	}
	if LowerBound(d, 1) != 0 {
		t.Fatal("bound at P=1 should be zero")
	}
}

func TestLowerBoundNonNegative(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		d := Dims{int(aRaw%50) + 1, int(bRaw%50) + 1, int(cRaw%50) + 1}
		p := int(pRaw) + 1
		return LowerBound(d, p) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCorollary4(t *testing.T) {
	n := 100
	for _, p := range []int{1, 8, 27, 64, 1000} {
		want := LowerBound(Square(n), p)
		got := Corollary4(n, p)
		if !approx(got, want, 1e-12) {
			t.Errorf("Corollary4(P=%d) = %v, Theorem3 = %v", p, got, want)
		}
	}
	if Corollary4(100, 1) != 0 {
		t.Error("Corollary 4 should vanish at P=1")
	}
}

func TestLeadingTermByCase(t *testing.T) {
	d := Dims{9600, 2400, 600}
	if got := LeadingTerm(d, 3); got != 2400*600 {
		t.Errorf("Case1 leading term = %v", got)
	}
	if got := LeadingTerm(d, 36); !approx(got, math.Sqrt(9600*2400*600*600/36.0), 1e-12) {
		t.Errorf("Case2 leading term = %v", got)
	}
	if got := LeadingTerm(d, 512); !approx(got, math.Pow(9600*2400*600/512.0, 2.0/3.0), 1e-12) {
		t.Errorf("Case3 leading term = %v", got)
	}
}

// TestTable1Constants pins down every cell of the paper's Table 1.
func TestTable1Constants(t *testing.T) {
	check := func(w PriorWork, c Case, want float64) {
		got := w.Constant(c)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("%v %v = %v, want NaN", w, c, got)
			}
			return
		}
		if !approx(got, want, 1e-12) {
			t.Errorf("%v %v = %v, want %v", w, c, got, want)
		}
	}
	nan := math.NaN()
	check(AggarwalChandraSnir1990, Case1, nan)
	check(AggarwalChandraSnir1990, Case2, nan)
	check(AggarwalChandraSnir1990, Case3, math.Pow(0.5, 2.0/3.0))
	check(IronyToledoTiskin2004, Case1, nan)
	check(IronyToledoTiskin2004, Case2, nan)
	check(IronyToledoTiskin2004, Case3, 0.5)
	check(DemmelEtAl2013, Case1, 0.64)
	check(DemmelEtAl2013, Case2, math.Sqrt(2.0/3.0))
	check(DemmelEtAl2013, Case3, 1)
	check(ThisPaper, Case1, 1)
	check(ThisPaper, Case2, 2)
	check(ThisPaper, Case3, 3)
}

// TestTheorem3ImprovesAllPriors verifies the paper's headline claim: the
// new constants strictly dominate every prior row in every case where that
// row proved a bound.
func TestTheorem3ImprovesAllPriors(t *testing.T) {
	for _, w := range AllWorks() {
		if w == ThisPaper {
			continue
		}
		for _, c := range []Case{Case1, Case2, Case3} {
			prior := w.Constant(c)
			if math.IsNaN(prior) {
				continue
			}
			if ThisPaper.Constant(c) <= prior {
				t.Errorf("%v not improved in %v: %v vs %v", w, c, ThisPaper.Constant(c), prior)
			}
			if f := ImprovementFactor(w, c); f <= 1 {
				t.Errorf("improvement factor %v for %v %v", f, w, c)
			}
		}
	}
}

func TestPriorWorkBoundEvaluation(t *testing.T) {
	d := Dims{9600, 2400, 600}
	// In Case 3 (P=512), Demmel et al. give exactly the leading term.
	if got, want := DemmelEtAl2013.Bound(d, 512), LeadingTerm(d, 512); !approx(got, want, 1e-12) {
		t.Errorf("Demmel bound = %v, want %v", got, want)
	}
	// Aggarwal has no Case 1 bound.
	if !math.IsNaN(AggarwalChandraSnir1990.Bound(d, 3)) {
		t.Error("Aggarwal should have no Case 1 bound")
	}
	if PriorWork(99).String() != "unknown" || !math.IsNaN(PriorWork(99).Constant(Case3)) {
		t.Error("unknown PriorWork handling")
	}
}

// TestMemoryCrossover checks the §6.2 algebra: the memory-dependent bound
// overtakes the Case 3 memory-independent bound exactly when
// P > (8/27)·mnk/M^{3/2}, equivalently M < (4/9)(mnk/P)^{2/3}.
func TestMemoryCrossover(t *testing.T) {
	d := Square(1200)
	mem := 3 * float64(1200*1200) / 64 // enough for P=64's data, scarce beyond
	pc := CrossoverP(d, mem)
	// The memory-dependent bound decays like 1/P versus the Case 3 bound's
	// P^{-2/3}, so it dominates for P *below* the crossover and loses above.
	for _, p := range []int{int(pc / 4), int(pc / 2), int(pc * 2), int(pc * 4)} {
		if p < 2 {
			continue
		}
		wantDominates := float64(p) < pc
		if got := MemoryDependentDominates(d, p, mem); got != wantDominates {
			t.Errorf("P=%d M=%v: dominates=%v, want %v (crossover %v)", p, mem, got, wantDominates, pc)
		}
	}
	// Consistency of the two §6.2 characterizations: at P = CrossoverP,
	// M equals CriticalMemory.
	p := pc
	cm := CriticalMemory(d, int(math.Round(p)))
	if !approx(cm, mem, 0.05) {
		t.Errorf("CriticalMemory at crossover = %v, want ≈ %v", cm, mem)
	}
}

// TestCase2NeverMemoryDominated encodes §6.2's claim that in Cases 1 and 2
// the memory-independent bound always dominates, because M > mn/P is forced
// by having to store the largest matrix.
func TestCase2NeverMemoryDominated(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		d := Dims{int(aRaw%60) + 2, int(bRaw%60) + 2, int(cRaw%60) + 2}
		p := int(pRaw)%64 + 1
		if CaseOf(d, p) == Case3 {
			return true // claim is about cases 1 and 2
		}
		mem := MinLocalMemory(d, p) // smallest legal memory
		return !MemoryDependentDominates(d, p, mem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBindingBound(t *testing.T) {
	d := Square(1024)
	p := 4096
	// Generous memory: memory-independent binds.
	b, md := BindingBound(d, p, 1e12)
	if md || !approx(b, 3*LeadingTerm(d, p), 1e-12) {
		t.Errorf("generous memory: bound %v md=%v", b, md)
	}
	// Tiny memory: memory-dependent binds.
	b2, md2 := BindingBound(d, p, 1000)
	if !md2 || !approx(b2, MemoryDependentLeading(d, p, 1000), 1e-12) {
		t.Errorf("tiny memory: bound %v md=%v", b2, md2)
	}
}

func TestAlg1LocalMemoryAtLeastMinimum(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pRaw uint8) bool {
		d := Dims{int(aRaw%60) + 1, int(bRaw%60) + 1, int(cRaw%60) + 1}
		p := int(pRaw) + 1
		return Alg1LocalMemory(d, p) >= MinLocalMemory(d, p)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewDimsAndStrings(t *testing.T) {
	if NewDims(2, 3, 4) != (Dims{N1: 2, N2: 3, N3: 4}) {
		t.Fatal("NewDims wrong")
	}
	for c, want := range map[Case]string{Case1: "Case 1 (1D)", Case2: "Case 2 (2D)", Case3: "Case 3 (3D)"} {
		if c.String() != want {
			t.Fatalf("Case %d String = %q", c, c.String())
		}
	}
	for _, w := range AllWorks() {
		if w.String() == "unknown" || w.String() == "" {
			t.Fatalf("work %d has no name", w)
		}
	}
}

func TestLemma2KKTRelativeResidualSmall(t *testing.T) {
	for _, p := range []int{1, 5, 64, 512, 1 << 14} {
		if r := Lemma2KKTRelativeResidual(Dims{N1: 9600, N2: 2400, N3: 600}, p); r > 1e-12 {
			t.Fatalf("P=%d: relative residual %g", p, r)
		}
	}
}

func TestPerfectStrongScalingLimitEqualsCrossover(t *testing.T) {
	d := Square(1024)
	if PerfectStrongScalingLimit(d, 5e4) != CrossoverP(d, 5e4) {
		t.Fatal("limit should equal the crossover")
	}
}

// AttainableCost returns the communication cost of the optimal Algorithm 1
// with the best processor grid, which by §5.2 matches LowerBound exactly in
// every case (when the grid divides the dimensions):
//
//	Case 1: (1 − 1/P)·nk
//	Case 2: 2·sqrt(mnk²/P) − (mk + nk)/P
//	Case 3: 3·(mnk/P)^{2/3} − (mn + mk + nk)/P
//
// These are algebraically identical to LowerBound; the function exists so
// the tightness test compares "bound" and "attained" from independent
// formulas.
func AttainableCost(d Dims, p int) float64 {
	m, n, k := d.Sorted()
	fm, fn, fk, fp := float64(m), float64(n), float64(k), float64(p)
	switch CaseOf(d, p) {
	case Case1:
		return (1 - 1/fp) * fn * fk
	case Case2:
		return 2*math.Sqrt(fm*fn*fk*fk/fp) - (fm*fk+fn*fk)/fp
	default:
		return 3*math.Pow(fm*fn*fk/fp, 2.0/3.0) - (fm*fn+fm*fk+fn*fk)/fp
	}
}

// MemoryDependentDominates reports whether, for the given instance and
// local memory M, the memory-dependent leading term 2mnk/(P·sqrt(M))
// exceeds the memory-independent bound D of Theorem 3. Per §6.2 this can
// happen only in Case 3 (where D = 3(mnk/P)^{2/3}), and only when
// mn/k² < P < (8/27)·mnk/M^{3/2}; in Cases 1 and 2 the forced M > mn/P
// makes the memory-independent bound dominate always (the paper's AM-GM
// argument compares the full bounds, which is why D, not the leading term,
// is used here).
func MemoryDependentDominates(d Dims, p int, mem float64) bool {
	return MemoryDependentLeading(d, p, mem) > D(d, p)
}
