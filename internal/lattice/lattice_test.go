package lattice

import (
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	p := Point{1, 2, 3}
	s.Add(p)
	s.Add(p) // duplicate
	if s.Len() != 1 || !s.Contains(p) || s.Contains(Point{0, 0, 0}) {
		t.Fatalf("set state wrong after adds: len=%d", s.Len())
	}
	if pts := s.Points(); len(pts) != 1 || pts[0] != p {
		t.Fatalf("Points() = %v", pts)
	}
}

func TestBrickProjections(t *testing.T) {
	// A 2×3×4 brick: |V|=24, |φ_A|=6, |φ_B|=12, |φ_C|=8.
	b := Brick(0, 2, 0, 3, 0, 4)
	if b.Len() != 24 {
		t.Fatalf("|V| = %d", b.Len())
	}
	pa, pb, pc := b.Projections()
	if pa != 6 || pb != 12 || pc != 8 {
		t.Fatalf("projections = %d %d %d, want 6 12 8", pa, pb, pc)
	}
	if b.ProjectionSum() != 26 {
		t.Fatalf("sum = %d", b.ProjectionSum())
	}
	if b.LoomisWhitneySlack() != 6*12*8-24 {
		t.Fatalf("slack = %d", b.LoomisWhitneySlack())
	}
}

func TestBrickOffsetDoesNotChangeSizes(t *testing.T) {
	a := Brick(0, 2, 0, 3, 0, 4)
	b := Brick(10, 12, 20, 23, 30, 34)
	pa1, pb1, pc1 := a.Projections()
	pa2, pb2, pc2 := b.Projections()
	if pa1 != pa2 || pb1 != pb2 || pc1 != pc2 || a.Len() != b.Len() {
		t.Fatal("translated brick has different projection sizes")
	}
}

func TestBrickEmptyAndInverted(t *testing.T) {
	if Brick(0, 0, 0, 5, 0, 5).Len() != 0 {
		t.Fatal("empty brick not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverted brick should panic")
		}
	}()
	Brick(3, 1, 0, 2, 0, 2)
}

func TestLoomisWhitneyOnBricksIsTight(t *testing.T) {
	// For axis-aligned bricks the LW inequality becomes |V| = product of
	// *side-wise* projections only when the brick is "full"; the standard
	// statement uses 2D projections: |V| = d1d2d3 and
	// |φ_A||φ_B||φ_C| = (d1d2)(d2d3)(d1d3) = (d1d2d3)², so slack is
	// |V|² − |V|.
	for _, d := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 2, 2}} {
		b := Brick(0, d[0], 0, d[1], 0, d[2])
		v := int64(b.Len())
		if b.LoomisWhitneySlack() != v*v-v {
			t.Fatalf("brick %v slack = %d, want %d", d, b.LoomisWhitneySlack(), v*v-v)
		}
	}
}

func TestLoomisWhitneyRandomSubsets(t *testing.T) {
	f := func(seed uint64, probRaw uint8) bool {
		prob := float64(probRaw) / 255
		s := RandomSubset(5, 6, 4, prob, seed)
		return s.LoomisWhitneyHolds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoomisWhitneyAdversarialShapes(t *testing.T) {
	// A diagonal line: |V| = n, projections all n → n ≤ n³.
	line := NewSet()
	for i := 0; i < 10; i++ {
		line.Add(Point{i, i, i})
	}
	if !line.LoomisWhitneyHolds() {
		t.Fatal("LW fails on diagonal line")
	}
	// A single plane slab i2 = 0: |V| = n², φ_A = n, φ_B = n, φ_C = n².
	slab := Brick(0, 7, 0, 1, 0, 7)
	pa, pb, pc := slab.Projections()
	if pa != 7 || pb != 7 || pc != 49 {
		t.Fatalf("slab projections %d %d %d", pa, pb, pc)
	}
	if !slab.LoomisWhitneyHolds() {
		t.Fatal("LW fails on slab")
	}
}

func TestFullIterationSpace(t *testing.T) {
	s := FullIterationSpace(3, 4, 5)
	if s.Len() != 60 {
		t.Fatalf("|V| = %d", s.Len())
	}
	pa, pb, pc := s.Projections()
	if pa != 12 || pb != 20 || pc != 15 {
		t.Fatalf("projections %d %d %d", pa, pb, pc)
	}
}

func TestAccessLowerBounds(t *testing.T) {
	a, b, c := AccessLowerBounds(6, 4, 2, 4)
	if a != 6 || b != 2 || c != 3 {
		t.Fatalf("bounds = %v %v %v, want 6 2 3", a, b, c)
	}
}

func TestMultiplicationsPerElement(t *testing.T) {
	pa, pb, pc := MultiplicationsPerElement(3, 4, 5)
	if pa != 5 || pb != 3 || pc != 4 {
		t.Fatalf("per-element counts %d %d %d", pa, pb, pc)
	}
}

// TestLemma1OnBalancedBricks verifies Lemma 1 empirically: any brick holding
// at least 1/P of the iteration space has projections at least as large as
// the per-array bounds.
func TestLemma1OnBalancedBricks(t *testing.T) {
	n1, n2, n3 := 8, 6, 4
	for _, p := range []int{1, 2, 4, 8} {
		// Partition i1 into p equal slabs; each holds exactly 1/p of work.
		w := n1 / p
		for r := 0; r < p; r++ {
			v := Brick(r*w, (r+1)*w, 0, n2, 0, n3)
			if !SatisfiesAccessBounds(v, n1, n2, n3, p) {
				t.Fatalf("Lemma 1 violated for slab %d of %d", r, p)
			}
		}
	}
}

// TestLemma1RandomAssignments verifies Lemma 1 on random partitions of the
// iteration space: whichever processor ends up with ≥ 1/P of the points must
// satisfy the access bounds.
func TestLemma1RandomAssignments(t *testing.T) {
	n1, n2, n3, p := 6, 5, 4, 3
	full := FullIterationSpace(n1, n2, n3)
	for seed := uint64(0); seed < 20; seed++ {
		rng := splitMix64{state: seed}
		parts := make([]*Set, p)
		for i := range parts {
			parts[i] = NewSet()
		}
		for _, pt := range full.Points() {
			parts[int(rng.next()%uint64(p))].Add(pt)
		}
		for i, v := range parts {
			if !SatisfiesAccessBounds(v, n1, n2, n3, p) {
				t.Fatalf("seed %d part %d violates Lemma 1 (|V|=%d)", seed, i, v.Len())
			}
		}
	}
}

func TestSatisfiesAccessBoundsSmallShare(t *testing.T) {
	// A set with less than 1/P of the work is vacuously fine.
	v := Brick(0, 1, 0, 1, 0, 1)
	if !SatisfiesAccessBounds(v, 100, 100, 100, 2) {
		t.Fatal("small share should be vacuously accepted")
	}
}

// TestSatisfiesAccessBoundsHugeDims regresses the integer-overflow bug:
// with n1 = n2 = n3 = 2^32 the old int64 triple product wrapped to zero,
// so a one-point set "held a 1/p share" and was then rejected against
// float64 bounds near 2^63. The overflow-free comparison answers true
// (vacuously — no materialized set reaches a 1/p share of a space that
// overflows int64).
func TestSatisfiesAccessBoundsHugeDims(t *testing.T) {
	v := Brick(0, 1, 0, 1, 0, 1)
	n := 1 << 32
	if !SatisfiesAccessBounds(v, n, n, n, 2) {
		t.Fatal("huge dims must be vacuously accepted, not rejected via overflow")
	}
	// Just under the guard: the product 2^17·2^17·2^18 = 2^52 fits, the
	// one-point set is below the share, still vacuous.
	if !SatisfiesAccessBounds(v, 1<<17, 1<<17, 1<<18, 4) {
		t.Fatal("sub-2^53 dims with a tiny set should be vacuously accepted")
	}
}

// TestSatisfiesAccessBoundsExactCeil pins the exact rational comparison:
// a processor holding a 1/p share must meet ⌈n·n/p⌉ on every projection,
// with no float64 division in the way. The full space trivially does.
func TestSatisfiesAccessBoundsExactCeil(t *testing.T) {
	full := FullIterationSpace(5, 2, 3)
	for p := 1; p <= 7; p++ {
		if !SatisfiesAccessBounds(full, 5, 2, 3, p) {
			t.Fatalf("full space rejected at p=%d", p)
		}
	}
}

func TestRandomSubsetDeterministic(t *testing.T) {
	a := RandomSubset(4, 4, 4, 0.5, 9)
	b := RandomSubset(4, 4, 4, 0.5, 9)
	if a.Len() != b.Len() {
		t.Fatal("RandomSubset not deterministic")
	}
	for _, p := range a.Points() {
		if !b.Contains(p) {
			t.Fatal("RandomSubset not deterministic in membership")
		}
	}
	if RandomSubset(4, 4, 4, 0, 1).Len() != 0 {
		t.Fatal("prob 0 should give empty set")
	}
	if RandomSubset(3, 3, 3, 1.0, 1).Len() != 27 {
		t.Fatal("prob 1 should give full set")
	}
}

// AccessLowerBounds returns the per-array access lower bounds of Lemma 1 for
// a processor performing at least 1/P of the multiplications of an
// n1×n2 · n2×n3 product: it must access at least n1·n2/P elements of A,
// n2·n3/P elements of B, and contribute to at least n1·n3/P elements of C.
// The values are returned as exact rationals evaluated in float64.
func AccessLowerBounds(n1, n2, n3 int, p int) (a, b, c float64) {
	fp := float64(p)
	return float64(n1) * float64(n2) / fp,
		float64(n2) * float64(n3) / fp,
		float64(n1) * float64(n3) / fp
}

// MultiplicationsPerElement returns how many scalar multiplications each
// element of A, B, and C participates in (n3, n1, and n2 respectively) —
// the counting fact Lemma 1's proof rests on.
func MultiplicationsPerElement(n1, n2, n3 int) (perA, perB, perC int) {
	return n3, n1, n2
}

// Contains reports whether p is in the set.
func (s *Set) Contains(p Point) bool {
	_, ok := s.points[p]
	return ok
}

// LoomisWhitneySlack returns |φ_A|·|φ_B|·|φ_C| − |V| (≥ 0 when the
// inequality holds). A slack of zero means V is a combinatorial brick.
func (s *Set) LoomisWhitneySlack() int64 {
	a, b, c := s.Projections()
	return int64(a)*int64(b)*int64(c) - int64(s.Len())
}

// FullIterationSpace returns the complete n1×n2×n3 iteration space of
// multiplying an n1×n2 matrix by an n2×n3 matrix.
func FullIterationSpace(n1, n2, n3 int) *Set { return Brick(0, n1, 0, n2, 0, n3) }

// RandomSubset returns a pseudo-random subset of the n1×n2×n3 iteration
// space in which each point appears independently with probability prob,
// deterministically derived from seed.
func RandomSubset(n1, n2, n3 int, prob float64, seed uint64) *Set {
	rng := splitMix64{state: seed}
	s := NewSet()
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				if rng.float64() < prob {
					s.Add(Point{i1, i2, i3})
				}
			}
		}
	}
	return s
}

// float64 returns a uniform value in [0, 1).
func (s *splitMix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
