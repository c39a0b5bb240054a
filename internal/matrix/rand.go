package matrix

// splitMix64 is a tiny deterministic PRNG (SplitMix64) used to fill test and
// benchmark matrices reproducibly without importing math/rand, so that the
// same seed yields identical matrices on every platform and Go version.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *splitMix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Random returns an r×c matrix with deterministic pseudo-random entries in
// [-1, 1) derived from seed.
func Random(r, c int, seed uint64) *Dense {
	rng := splitMix64{state: seed}
	m := New(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 2*rng.float64() - 1
		}
	}
	return m
}

// Indexed returns an r×c matrix whose (i, j) entry encodes its coordinates
// as i*cols+j+1. Useful in tests for checking data placement: every element
// value identifies its global position.
func Indexed(r, c int) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float64(i*c + j + 1)
		}
	}
	return m
}
