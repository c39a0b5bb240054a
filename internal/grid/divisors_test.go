package grid

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
)

// trialDivisionTriples is the reference enumerator the factorized helper
// replaced: two nested trial-division loops over 1..p. Kept here as the
// oracle for equivalence (including visit order) and as the benchmark
// baseline.
func trialDivisionTriples(p int, visit func(Grid)) {
	for p1 := 1; p1 <= p; p1++ {
		if p%p1 != 0 {
			continue
		}
		rest := p / p1
		for p2 := 1; p2 <= rest; p2++ {
			if rest%p2 != 0 {
				continue
			}
			visit(Grid{p1, p2, rest / p2})
		}
	}
}

// factorize returns the prime factorization of n > 0 as parallel slices of
// primes (ascending) and exponents.
func factorize(n int) (primes, exps []int) {
	for f := 2; f*f <= n; f++ {
		if n%f != 0 {
			continue
		}
		e := 0
		for n%f == 0 {
			n /= f
			e++
		}
		primes = append(primes, f)
		exps = append(exps, e)
	}
	if n > 1 {
		primes = append(primes, n)
		exps = append(exps, 1)
	}
	return primes, exps
}

// divisorsOf returns all divisors of n in ascending order, generated from
// the prime factorization.
func divisorsOf(n int) []int {
	primes, exps := factorize(n)
	divs := []int{1}
	for i, p := range primes {
		base := len(divs)
		pk := 1
		for e := 0; e < exps[i]; e++ {
			pk *= p
			for j := 0; j < base; j++ {
				divs = append(divs, divs[j]*pk)
			}
		}
	}
	sort.Ints(divs)
	return divs
}

// forEachTriple visits every ordered triple (p1, p2, p3) with p1·p2·p3 = p
// exactly once, p1 ascending, then p2 ascending: the unpruned scan over
// divisorsOf that Optimal and OptimalUnderMemory must agree with.
func forEachTriple(p int, visit func(Grid)) {
	divs := divisorsOf(p)
	for _, p1 := range divs {
		rest := p / p1
		for _, p2 := range divs {
			if p2 > rest {
				break
			}
			if rest%p2 == 0 {
				visit(Grid{p1, p2, rest / p2})
			}
		}
	}
}

// optimalOracle is Optimal as a scan through enumerate.
func optimalOracle(d core.Dims, p int, enumerate func(int, func(Grid))) Grid {
	best := Grid{p, 1, 1}
	bestCost := math.Inf(1)
	bestDivides := false
	enumerate(p, func(g Grid) {
		cost := CommCost(d, g)
		div := Divides(d, g)
		better := cost < bestCost-1e-9
		if !better && math.Abs(cost-bestCost) <= 1e-9 && div && !bestDivides {
			better = true
		}
		if better {
			best, bestCost, bestDivides = g, cost, div
		}
	})
	return best
}

// underMemoryOracle is OptimalUnderMemory as an unpruned scan through
// enumerate.
func underMemoryOracle(d core.Dims, p int, mem float64, enumerate func(int, func(Grid))) (Grid, bool) {
	var best Grid
	bestCost := math.Inf(1)
	found := false
	enumerate(p, func(g Grid) {
		if MemoryCost(d, g) > mem {
			return
		}
		if cost := CommCost(d, g); cost < bestCost-1e-9 {
			best, bestCost, found = g, cost, true
		}
	})
	return best, found
}

func TestDivisorsOf(t *testing.T) {
	for _, n := range []int{1, 2, 12, 97, 360, 1024, 30030, 100003, 14414400, 17297280} {
		var want []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				want = append(want, d)
			}
		}
		for name, got := range map[string][]int{
			"divisorsOf":     divisorsOf(n),
			"appendDivisors": appendDivisors([]int{-1}, n)[1:],
		} {
			if len(got) != len(want) {
				t.Fatalf("%s(%d) has %d divisors, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s(%d)[%d] = %d, want %d", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForEachTripleMatchesTrialDivision checks both the set of triples and
// the visit order: Optimal's deterministic tie-breaking depends on
// first-seen order, so the factorized enumerator must be a drop-in.
func TestForEachTripleMatchesTrialDivision(t *testing.T) {
	for _, p := range []int{1, 2, 7, 12, 64, 97, 360, 1001, 1024} {
		var want, got []Grid
		trialDivisionTriples(p, func(g Grid) { want = append(want, g) })
		forEachTriple(p, func(g Grid) { got = append(got, g) })
		if len(got) != len(want) {
			t.Fatalf("P=%d: %d triples, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("P=%d: triple %d is %v, want %v (order must match)", p, i, got[i], want[i])
			}
		}
	}
}

// TestOptimalMatchesTrialDivisionSearch re-runs the full searches with the
// trial-division enumerator and demands identical winners, constraints and
// all, across square and skewed shapes and awkward processor counts.
func TestOptimalMatchesTrialDivisionSearch(t *testing.T) {
	dims := []core.Dims{
		core.NewDims(64, 64, 64),
		core.NewDims(4096, 64, 64),
		core.NewDims(1000, 100, 10),
	}
	for _, d := range dims {
		for _, p := range []int{1, 6, 13, 60, 97, 128, 360, 1001} {
			want := optimalOracle(d, p, trialDivisionTriples)
			if got := Optimal(d, p); got != want {
				t.Errorf("Optimal(%v, %d) = %v, reference %v", d, p, got, want)
			}
			for _, mem := range []float64{0, core.MinLocalMemory(d, p) * 1.5, math.Inf(1)} {
				wantG, wantOK := underMemoryOracle(d, p, mem, trialDivisionTriples)
				gotG, gotOK := OptimalUnderMemory(d, p, mem)
				if gotG != wantG || gotOK != wantOK {
					t.Errorf("OptimalUnderMemory(%v, %d, %g) = %v,%v, reference %v,%v",
						d, p, mem, gotG, gotOK, wantG, wantOK)
				}
			}
		}
	}
}

// checkAgainstOracle compares both searches with the unpruned scan
// at one (dims, P), under the budgets 0, 1.5× the one-copy floor, +Inf,
// NaN and any extra ones given.
func checkAgainstOracle(t *testing.T, d core.Dims, p int, extra ...float64) {
	t.Helper()
	if got, want := Optimal(d, p), optimalOracle(d, p, forEachTriple); got != want {
		t.Fatalf("Optimal(%v, %d) = %v, oracle %v", d, p, got, want)
	}
	for _, mem := range append([]float64{0, core.MinLocalMemory(d, p) * 1.5, math.Inf(1), math.NaN()}, extra...) {
		checkUnderMemory(t, d, p, mem)
	}
}

// checkUnderMemory compares OptimalUnderMemory with the unpruned scan.
func checkUnderMemory(t *testing.T, d core.Dims, p int, mem float64) {
	t.Helper()
	gotG, gotOK := OptimalUnderMemory(d, p, mem)
	wantG, wantOK := underMemoryOracle(d, p, mem, forEachTriple)
	if gotG != wantG || gotOK != wantOK {
		t.Fatalf("OptimalUnderMemory(%v, %d, %g) = %v,%v, oracle %v,%v",
			d, p, mem, gotG, gotOK, wantG, wantOK)
	}
}

// TestSearchesMatchOracle pins the row bounds: pruning never changes a
// winner, tie-breaks included, on every P ≤ 5000 of five shapes (square,
// the Figure 2 shape, one with a unit dimension, 1×1×1, and one whose
// sorted order differs from its given order), on the plan sweep's P range,
// and on highly composite P up to the divisor buffer's limit and past it.
func TestSearchesMatchOracle(t *testing.T) {
	shapes := []core.Dims{
		core.Square(512),
		core.NewDims(9600, 2400, 600),
		core.NewDims(100000, 1, 37),
		core.NewDims(1, 1, 1),
		core.NewDims(600, 9600, 2400),
	}
	for _, d := range shapes {
		for p := 1; p <= 5000; p++ {
			checkAgainstOracle(t, d, p)
		}
	}
	for p := 100000; p < 105000; p++ {
		checkAgainstOracle(t, core.Square(2000), p, 10001)
	}
	for _, p := range []int{720720, 8648640, 14414400, 17297280} {
		for _, d := range append(shapes, core.Square(2000)) {
			checkAgainstOracle(t, d, p, 10001)
		}
	}
}

// FuzzOptimalUnderMemory holds both searches to the unpruned scans. Dims
// are any that pass Validate and P is up to 2^20. The budget is 0, NaN,
// +Inf, or the footprint of some triple of P, or one ulp either side of
// it, where a wrong budget prune would show.
func FuzzOptimalUnderMemory(f *testing.F) {
	f.Add(uint64(2000), uint64(2000), uint64(2000), uint32(100003), uint16(7), uint8(1))
	f.Add(uint64(9600), uint64(2400), uint64(600), uint32(720720), uint16(400), uint8(0))
	f.Add(uint64(100000), uint64(1), uint64(37), uint32(65536), uint16(3), uint8(2))
	f.Add(uint64(1), uint64(1), uint64(1), uint32(1), uint16(0), uint8(3))
	f.Add(uint64(600), uint64(9600), uint64(2400), uint32(1<<20-1), uint16(9), uint8(4))
	f.Add(uint64(2000), uint64(2000), uint64(2000), uint32(104999), uint16(11), uint8(5))
	f.Fuzz(func(t *testing.T, n1, n2, n3 uint64, rawP uint32, pick uint16, budget uint8) {
		d := core.NewDims(int(n1%(1<<18))+1, int(n2%(1<<18))+1, int(n3%(1<<18))+1)
		if d.Validate() != nil {
			t.Skip()
		}
		p := int(rawP%(1<<20)) + 1
		var triples []Grid
		forEachTriple(p, func(g Grid) { triples = append(triples, g) })
		foot := MemoryCost(d, triples[int(pick)%len(triples)])
		mem := [...]float64{foot, math.Nextafter(foot, math.Inf(-1)), math.Nextafter(foot, math.Inf(1)),
			0, math.NaN(), math.Inf(1)}[int(budget)%6]
		if got, want := Optimal(d, p), optimalOracle(d, p, forEachTriple); got != want {
			t.Fatalf("Optimal(%v, %d) = %v, oracle %v", d, p, got, want)
		}
		checkUnderMemory(t, d, p, mem)
	})
}

// TestRowBoundsHold checks the two facts the pruning rests on, triple by
// triple, including rows whose bound a triple attains exactly: the row
// floor never exceeds a footprint in its row, and past p2* a footprint
// shrunk by slack never exceeds a later one.
func TestRowBoundsHold(t *testing.T) {
	for _, d := range []core.Dims{core.Square(1), core.Square(2000), core.NewDims(9600, 2400, 600), core.NewDims(100000, 1, 37)} {
		for p := 1; p <= 3000; p++ {
			s := newSearch(d, p)
			divs := divisorsOf(p)
			for _, p1 := range divs {
				rest := p / p1
				floor, p2star := s.row(p1, rest)
				prev := math.Inf(-1)
				for _, p2 := range divs {
					if p2 > rest {
						break
					}
					if rest%p2 != 0 {
						continue
					}
					foot, _ := s.costs(Grid{p1, p2, rest / p2})
					if floor > foot {
						t.Fatalf("%v P=%d row %d: floor %v above the footprint %v of p2=%d", d, p, p1, floor, foot, p2)
					}
					if prev > foot {
						t.Fatalf("%v P=%d row %d: footprint falls to %v at p2=%d past p2*=%v", d, p, p1, foot, p2, p2star)
					}
					if float64(p2) > p2star*(1+slack) {
						prev = foot * (1 - slack)
					}
				}
			}
		}
	}
}

// TestSearchesDoNotAllocate pins the searches at zero heap allocations up
// to the service's search limit P = 2^24 (14414400 has the most divisors
// of any P there), and at one past it, where the divisor list outgrows the
// stack buffer.
func TestSearchesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := core.Square(2000)
	for _, c := range []struct{ p, allocs int }{
		{1, 0}, {100003, 0}, {102400, 0}, {720720, 0}, {8648640, 0}, {14414400, 0}, {1 << 24, 0},
		{17297280, 1},
	} {
		if n := testing.AllocsPerRun(20, func() { Optimal(d, c.p) }); n != float64(c.allocs) {
			t.Errorf("Optimal(P=%d) makes %v allocations, want %d", c.p, n, c.allocs)
		}
		if n := testing.AllocsPerRun(20, func() { OptimalUnderMemory(d, c.p, 10001) }); n != float64(c.allocs) {
			t.Errorf("OptimalUnderMemory(P=%d) makes %v allocations, want %d", c.p, n, c.allocs)
		}
	}
}

// BenchmarkOptimal compares Optimal against the oracle's allocating scan
// and the trial-division loops before it. Prime-rich P make the gap stark:
// a prime P has two divisors, but trial division still scans all P
// candidates for p1 and up to P for p2.
func BenchmarkOptimal(b *testing.B) {
	d := core.NewDims(4096, 4096, 4096)
	for _, p := range []int{30030, 65536, 99991} {
		b.Run(fmt.Sprintf("Optimal/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Optimal(d, p)
			}
		})
		b.Run(fmt.Sprintf("Oracle/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				optimalOracle(d, p, forEachTriple)
			}
		})
		b.Run(fmt.Sprintf("TrialDivision/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				optimalOracle(d, p, trialDivisionTriples)
			}
		})
	}
}

// BenchmarkOptimalUnderMemory times the plan sweep's grid search: 2000³
// with a 10001-word budget over P ∈ [100000, 105000).
func BenchmarkOptimalUnderMemory(b *testing.B) {
	d := core.Square(2000)
	b.Run("Pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			OptimalUnderMemory(d, 100000+i%5000, 10001)
		}
	})
	b.Run("Oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			underMemoryOracle(d, 100000+i%5000, 10001, forEachTriple)
		}
	})
}
