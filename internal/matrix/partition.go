package matrix

import "fmt"

// Segment is a half-open index range [Lo, Hi) describing one part of a
// balanced 1D block partition.
type Segment struct {
	Lo, Hi int
}

// Len returns the number of indices in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// Partition splits the index range [0, n) into p contiguous segments whose
// lengths differ by at most one: the first n mod p segments get ceil(n/p)
// indices, the rest floor(n/p). It is the canonical block distribution
// used by every distributed algorithm in this repository: PartSize,
// PartStart and PartSizes read the same split one segment or one count
// slice at a time, and no other package splits n items over p owners. It
// degrades gracefully when p does not divide n (segments may be empty
// when p > n).
func Partition(n, p int) []Segment {
	if n < 0 || p <= 0 {
		panic(fmt.Sprintf("matrix: Partition(%d, %d)", n, p))
	}
	segs := make([]Segment, p)
	lo := 0
	for i := range segs {
		hi := lo + PartSize(n, p, i)
		segs[i] = Segment{Lo: lo, Hi: hi}
		lo = hi
	}
	return segs
}

// PartSize returns the length of segment i of Partition(n, p) without
// materializing the slice.
func PartSize(n, p, i int) int {
	if i < 0 || i >= p {
		panic(fmt.Sprintf("matrix: PartSize index %d of %d", i, p))
	}
	q, r := n/p, n%p
	if i < r {
		return q + 1
	}
	return q
}

// PartStart returns the starting index of segment i of Partition(n, p).
func PartStart(n, p, i int) int {
	if i < 0 || i >= p {
		panic(fmt.Sprintf("matrix: PartStart index %d of %d", i, p))
	}
	q, r := n/p, n%p
	return i*q + min(i, r)
}

// PartSizes writes the segment lengths of Partition(n, len(counts)) into
// counts and returns it: the per-owner counts of n items split over
// len(counts) owners, without allocating. It divides once itself rather
// than calling PartSize per owner: inlined into Algorithm 1's rank body,
// PartSize's panic message grew that frame by 32 bytes, which took each
// rank's deepest stack past 4 KiB and doubled every goroutine stack of a
// 16384-rank run (64 → 128 MiB of stacks).
func PartSizes(counts []int, n int) []int {
	q, r := n/len(counts), n%len(counts)
	for i := range counts {
		counts[i] = q
		if i < r {
			counts[i]++
		}
	}
	return counts
}

// BlockOf returns the (i, j) block of m under a pr×pc balanced 2D block
// partition, as a copy with contiguous storage.
func BlockOf(m *Dense, pr, pc, i, j int) *Dense {
	r0 := PartStart(m.Rows(), pr, i)
	c0 := PartStart(m.Cols(), pc, j)
	return m.View(r0, c0, PartSize(m.Rows(), pr, i), PartSize(m.Cols(), pc, j)).Clone()
}

// BlockView returns block (i, j) of the balanced pr×pc partition of m as a
// view value: it aliases m's storage without copying or allocating. The
// allocation-free counterpart of BlockOf for read-only block access.
func BlockView(m *Dense, pr, pc, i, j int) Dense {
	r0 := PartStart(m.Rows(), pr, i)
	c0 := PartStart(m.Cols(), pc, j)
	r := PartSize(m.Rows(), pr, i)
	c := PartSize(m.Cols(), pc, j)
	return Dense{rows: r, cols: c, stride: m.stride, data: m.data[r0*m.stride+c0:]}
}
