// Package lattice implements the discrete-geometry substrate behind the
// paper's lower-bound proofs: finite sets of 3D lattice points (elements of
// the matrix multiplication iteration space), their projections onto the
// three matrices, the Loomis-Whitney inequality (the paper's Lemma 1 of §3.2,
// |V| ≤ |φ_i(V)|·|φ_j(V)|·|φ_k(V)|), and the per-array access lower bounds of
// Lemma 1 of §4.1.
//
// A point (i1, i2, i3) represents the scalar multiplication
// A(i1,i2)·B(i2,i3) contributing to C(i1,i3). The projection onto A keeps
// (i1,i2), onto B keeps (i2,i3), and onto C keeps (i1,i3). The package lets
// tests and experiments check, on concrete work assignments, that the sum of
// projection sizes respects Theorem 3's optimization-based bound, and that
// Algorithm 1's brick assignment achieves it with equality.
package lattice

import "fmt"

// Point is a lattice point (I1, I2, I3) in the matmul iteration space:
// the scalar multiplication A(I1,I2)·B(I2,I3) contributing to C(I1,I3).
type Point struct {
	I1, I2, I3 int
}

// Pair is a 2D lattice point, the image of a Point under one of the three
// matrix projections.
type Pair struct {
	X, Y int
}

// Set is a finite set of lattice points.
type Set struct {
	points map[Point]struct{}
}

// NewSet returns an empty point set.
func NewSet() *Set { return &Set{points: make(map[Point]struct{})} }

// Add inserts p into the set.
func (s *Set) Add(p Point) { s.points[p] = struct{}{} }

// Len returns |V|, the number of points (scalar multiplications).
func (s *Set) Len() int { return len(s.points) }

// Points returns the points in unspecified order.
func (s *Set) Points() []Point {
	out := make([]Point, 0, len(s.points))
	for p := range s.points {
		out = append(out, p)
	}
	return out
}

// ProjectionA returns φ_A(V) = {(i1,i2) : ∃ i3, (i1,i2,i3) ∈ V}, the set of
// elements of A the computation requires.
func (s *Set) ProjectionA() map[Pair]struct{} {
	out := make(map[Pair]struct{})
	for p := range s.points {
		out[Pair{p.I1, p.I2}] = struct{}{}
	}
	return out
}

// ProjectionB returns φ_B(V) = {(i2,i3) : ∃ i1, (i1,i2,i3) ∈ V}.
func (s *Set) ProjectionB() map[Pair]struct{} {
	out := make(map[Pair]struct{})
	for p := range s.points {
		out[Pair{p.I2, p.I3}] = struct{}{}
	}
	return out
}

// ProjectionC returns φ_C(V) = {(i1,i3) : ∃ i2, (i1,i2,i3) ∈ V}.
func (s *Set) ProjectionC() map[Pair]struct{} {
	out := make(map[Pair]struct{})
	for p := range s.points {
		out[Pair{p.I1, p.I3}] = struct{}{}
	}
	return out
}

// Projections returns the three projection sizes (|φ_A|, |φ_B|, |φ_C|).
func (s *Set) Projections() (a, b, c int) {
	return len(s.ProjectionA()), len(s.ProjectionB()), len(s.ProjectionC())
}

// ProjectionSum returns |φ_A(V)| + |φ_B(V)| + |φ_C(V)|, the total data
// footprint of the computation V — the quantity Theorem 3 lower-bounds.
func (s *Set) ProjectionSum() int {
	a, b, c := s.Projections()
	return a + b + c
}

// LoomisWhitneyHolds checks the Loomis-Whitney inequality
// |V| ≤ |φ_A(V)|·|φ_B(V)|·|φ_C(V)| on this set. It always returns true for
// correct projection logic; it exists so property tests can exercise the
// inequality on random sets and so experiments can report the slack.
func (s *Set) LoomisWhitneyHolds() bool {
	a, b, c := s.Projections()
	return int64(s.Len()) <= int64(a)*int64(b)*int64(c)
}

// Brick returns the axis-aligned box of points with I1 ∈ [lo1, hi1),
// I2 ∈ [lo2, hi2), I3 ∈ [lo3, hi3) — the shape Algorithm 1 assigns to each
// processor, for which Loomis-Whitney holds with equality.
func Brick(lo1, hi1, lo2, hi2, lo3, hi3 int) *Set {
	if hi1 < lo1 || hi2 < lo2 || hi3 < lo3 {
		panic(fmt.Sprintf("lattice: inverted brick [%d,%d)x[%d,%d)x[%d,%d)", lo1, hi1, lo2, hi2, lo3, hi3))
	}
	s := NewSet()
	for i1 := lo1; i1 < hi1; i1++ {
		for i2 := lo2; i2 < hi2; i2++ {
			for i3 := lo3; i3 < hi3; i3++ {
				s.Add(Point{i1, i2, i3})
			}
		}
	}
	return s
}

// splitMix64 mirrors the matrix package's deterministic PRNG; duplicated
// locally to keep lattice dependency-free.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
