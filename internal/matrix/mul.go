package matrix

import (
	"fmt"
	"runtime"
	"sync"
)

// mulBlock is the cache-blocking tile edge used by the blocked kernels. The
// exact value only affects local wall-clock performance, never the simulated
// communication costs that the rest of the repository studies.
const mulBlock = 64

// mulJBlock tiles the j (output-column) dimension so the b-panel and c-row
// segments touched by one (i,k) tile stay L2-resident even when b has many
// columns: the working set per tile is bounded by mulBlock·mulJBlock words
// instead of mulBlock·b.cols. Tiling j never reorders the per-element
// k-summation, so results stay bit-identical to the untiled kernel.
const mulJBlock = 512

// Mul returns the product a·b using the blocked sequential kernel.
// It panics if the inner dimensions disagree.
func Mul(a, b *Dense) *Dense {
	c := New(a.rows, b.cols)
	MulAdd(c, a, b)
	return c
}

// MulAdd computes c += a·b with a blocked i-k-j loop order that keeps the
// innermost loop streaming over contiguous rows of b and c.
func MulAdd(c, a, b *Dense) {
	checkMulShapes(c, a, b)
	mulAddRange(c, a, b, 0, a.rows)
}

// mulAddRange accumulates rows [i0, i1) of the product into c with a blocked
// i-k-j loop nest, tiled over all three dimensions. For each output element
// the k-summands are added in ascending k order — the j tiling only narrows
// which columns an (i,k) tile updates — so the floating-point result is
// independent of the tile sizes.
func mulAddRange(c, a, b *Dense, i0, i1 int) {
	n2 := a.cols
	n3 := b.cols
	for ib := i0; ib < i1; ib += mulBlock {
		iMax := min(ib+mulBlock, i1)
		for jb := 0; jb < n3; jb += mulJBlock {
			jMax := min(jb+mulJBlock, n3)
			for kb := 0; kb < n2; kb += mulBlock {
				kMax := min(kb+mulBlock, n2)
				for i := ib; i < iMax; i++ {
					arow := a.Row(i)
					crow := c.Row(i)[jb:jMax]
					for k := kb; k < kMax; k++ {
						aik := arow[k]
						if aik == 0 {
							continue
						}
						// Four products per trip. With one, the loop was
						// short enough that whether it crossed a 64-byte
						// line, which the code linked before this package
						// decides, moved a 256³ product's time by a quarter.
						brow := b.Row(k)[jb:jMax]
						j := 0
						for ; j+4 <= len(brow); j += 4 {
							crow[j] += aik * brow[j]
							crow[j+1] += aik * brow[j+1]
							crow[j+2] += aik * brow[j+2]
							crow[j+3] += aik * brow[j+3]
						}
						for ; j < len(brow); j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

// MulIntoVal computes c = a·b with the blocked kernel, reusing c's existing
// storage (c is zeroed first), and panics on shape mismatch. It takes
// matrix values (typically Wrap-ped pooled buffers): because the sequential
// path never lets the headers reach a goroutine closure, escape analysis
// keeps them on the caller's stack. workers > 1 delegates to the parallel
// kernel, paying the three header allocations only on that branch.
func MulIntoVal(c, a, b Dense, workers int) {
	checkMulShapes(&c, &a, &b)
	c.Zero()
	if workers > 1 {
		mulAddParallelCopy(c, a, b, workers)
		return
	}
	mulAddRange(&c, &a, &b, 0, a.rows)
}

// MulParallel returns a·b computed with up to workers goroutines splitting
// the row range of the output. workers <= 0 selects GOMAXPROCS.
func MulParallel(a, b *Dense, workers int) *Dense {
	c := New(a.rows, b.cols)
	MulAddParallel(c, a, b, workers)
	return c
}

// MulAddParallel computes c += a·b in parallel over disjoint row bands of c,
// so no synchronization beyond the final join is needed.
func MulAddParallel(c, a, b *Dense, workers int) {
	checkMulShapes(c, a, b)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.rows {
		workers = a.rows
	}
	if workers <= 1 {
		mulAddRange(c, a, b, 0, a.rows)
		return
	}
	var wg sync.WaitGroup
	for _, seg := range Partition(a.rows, workers) {
		if seg.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulAddRange(c, a, b, lo, hi)
		}(seg.Lo, seg.Hi)
	}
	wg.Wait()
}

// mulAddParallelCopy hands fresh header copies to MulAddParallel. It must
// not be inlined: inlining would merge its escaping copies into MulIntoVal's
// frame and force the sequential path's headers onto the heap too.
//
//go:noinline
func mulAddParallelCopy(c, a, b Dense, workers int) {
	MulAddParallel(&c, &a, &b, workers)
}

func checkMulShapes(c, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if c.rows != a.rows || c.cols != b.cols {
		panic(fmt.Sprintf("matrix: Mul output shape %dx%d for %dx%d · %dx%d", c.rows, c.cols, a.rows, a.cols, b.rows, b.cols))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
