package lattice

import (
	"fmt"

	"repro/internal/matrix"
)

// Partition is an assignment of the full n1×n2×n3 matmul iteration space to
// P processors: Parts[r] is the set of scalar multiplications processor r
// performs. It is the object the proof of Theorem 3 quantifies over — any
// partition whatsoever, not just grid-shaped ones.
type Partition struct {
	N1, N2, N3 int
	Parts      []*Set
}

// P returns the number of processors.
func (pt *Partition) P() int { return len(pt.Parts) }

// Validate checks that the parts are disjoint and exactly cover the
// iteration space.
func (pt *Partition) Validate() error {
	seen := make(map[Point]int)
	for r, part := range pt.Parts {
		for _, p := range part.Points() {
			if p.I1 < 0 || p.I1 >= pt.N1 || p.I2 < 0 || p.I2 >= pt.N2 || p.I3 < 0 || p.I3 >= pt.N3 {
				return fmt.Errorf("lattice: point %v of part %d outside %dx%dx%d", p, r, pt.N1, pt.N2, pt.N3)
			}
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("lattice: point %v assigned to both %d and %d", p, prev, r)
			}
			seen[p] = r
		}
	}
	if total := pt.N1 * pt.N2 * pt.N3; len(seen) != total {
		return fmt.Errorf("lattice: partition covers %d of %d points", len(seen), total)
	}
	return nil
}

// MaxLoadedProjectionSum returns the largest projection sum
// |φ_A| + |φ_B| + |φ_C| among processors performing at least a 1/P share of
// the multiplications — the quantity Theorem 3 proves is at least D. The
// boolean reports whether any processor met the share condition (always
// true for computation-balanced partitions).
func (pt *Partition) MaxLoadedProjectionSum() (int, bool) {
	total := int64(pt.N1) * int64(pt.N2) * int64(pt.N3)
	p := int64(pt.P())
	best, found := 0, false
	for _, part := range pt.Parts {
		if int64(part.Len())*p < total {
			continue
		}
		found = true
		if s := part.ProjectionSum(); s > best {
			best = s
		}
	}
	return best, found
}

// CheckLowerBoundInvariants verifies, for every part, the Loomis-Whitney
// inequality and the Lemma 1 access bounds (vacuous for parts below the
// 1/P share). It returns the first violation, which the paper proves
// cannot exist.
func (pt *Partition) CheckLowerBoundInvariants() error {
	for r, part := range pt.Parts {
		if !part.LoomisWhitneyHolds() {
			return fmt.Errorf("lattice: Loomis-Whitney violated by part %d", r)
		}
		if !SatisfiesAccessBounds(part, pt.N1, pt.N2, pt.N3, pt.P()) {
			return fmt.Errorf("lattice: Lemma 1 access bounds violated by part %d", r)
		}
	}
	return nil
}

// BrickPartition builds Algorithm 1's assignment: the iteration space cut
// into a p1×p2×p3 grid of balanced bricks (processor (i,j,k) in row-major
// order gets brick (i,j,k)). With the §5.2 optimal grid, its loaded
// projection sum equals D exactly — the geometric face of tightness.
func BrickPartition(n1, n2, n3, p1, p2, p3 int) *Partition {
	if p1 <= 0 || p2 <= 0 || p3 <= 0 {
		panic(fmt.Sprintf("lattice: grid %dx%dx%d", p1, p2, p3))
	}
	cut := func(n, p, i int) (int, int) {
		lo := matrix.PartStart(n, p, i)
		return lo, lo + matrix.PartSize(n, p, i)
	}
	pt := &Partition{N1: n1, N2: n2, N3: n3}
	for i := 0; i < p1; i++ {
		lo1, hi1 := cut(n1, p1, i)
		for j := 0; j < p2; j++ {
			lo2, hi2 := cut(n2, p2, j)
			for k := 0; k < p3; k++ {
				lo3, hi3 := cut(n3, p3, k)
				pt.Parts = append(pt.Parts, Brick(lo1, hi1, lo2, hi2, lo3, hi3))
			}
		}
	}
	return pt
}

// RandomPartition assigns every point of the iteration space independently
// and uniformly to one of p processors (deterministically from seed). Such
// partitions are computation-balanced in expectation but have far larger
// projections than bricks — they exhibit the gap between arbitrary
// parallelizations and the communication-optimal one.
func RandomPartition(n1, n2, n3, p int, seed uint64) *Partition {
	if p <= 0 {
		panic(fmt.Sprintf("lattice: P = %d", p))
	}
	pt := &Partition{N1: n1, N2: n2, N3: n3}
	for r := 0; r < p; r++ {
		pt.Parts = append(pt.Parts, NewSet())
	}
	rng := splitMix64{state: seed}
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				r := int(rng.next() % uint64(p))
				pt.Parts[r].Add(Point{i1, i2, i3})
			}
		}
	}
	return pt
}
