package matrix

import "fmt"

// PartSize returns the length of segment i when the index range [0, n) is
// split into p contiguous segments whose lengths differ by at most one: the
// first n mod p segments get ceil(n/p) indices, the rest floor(n/p), and
// segments may be empty when p > n. It is the canonical block distribution
// used by every distributed algorithm in this repository: PartSize,
// PartStart and PartSizes read the same split one segment or one count
// slice at a time, and no other package splits n items over p owners.
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

// PartStart returns the starting index of segment i of PartSize's split.
func PartStart(n, p, i int) int {
	if i < 0 || i >= p {
		panic(fmt.Sprintf("matrix: PartStart index %d of %d", i, p))
	}
	q, r := n/p, n%p
	return i*q + min(i, r)
}

// PartSizes writes the per-owner counts of n items split over len(counts)
// owners, as PartSize splits them, into counts and returns it, without
// allocating. It divides once itself rather than calling PartSize per
// owner: inlined into Algorithm 1's rank body, PartSize's panic message
// grew that frame by 32 bytes, which took each rank's deepest stack past
// 4 KiB and doubled every goroutine stack of a 16384-rank run (64 → 128 MiB
// of stacks).
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

// BlockView returns block (i, j) of the balanced pr×pc partition of m as a
// view value: it aliases m's storage without copying or allocating, so a
// rank body can hold it on its stack and pack from it.
func BlockView(m *Dense, pr, pc, i, j int) Dense {
	r0 := PartStart(m.Rows(), pr, i)
	c0 := PartStart(m.Cols(), pc, j)
	r := PartSize(m.Rows(), pr, i)
	c := PartSize(m.Cols(), pc, j)
	return Dense{rows: r, cols: c, stride: m.stride, data: m.data[r0*m.stride+c0:]}
}
