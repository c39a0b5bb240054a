package extension

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// Arrays holds the flat storage of the d arrays of a Problem: Arrays[j] is
// array j (indexed by all dimensions except j, row-major in increasing
// dimension order).
type Arrays struct {
	pr   Problem
	Data [][]float64
}

// NewArrays allocates zeroed arrays for pr.
func NewArrays(pr Problem) *Arrays {
	a := &Arrays{pr: pr, Data: make([][]float64, pr.D())}
	for j := range a.Data {
		a.Data[j] = make([]float64, int(pr.ArraySize(j)))
	}
	return a
}

// Randomize fills the input arrays (0..d−2) with deterministic values and
// zeroes the output.
func (a *Arrays) Randomize(seed uint64) {
	for j := 0; j < a.pr.D()-1; j++ {
		m := matrix.Random(1, len(a.Data[j]), seed+uint64(j))
		copy(a.Data[j], m.Row(0))
	}
	for i := range a.Data[a.pr.D()-1] {
		a.Data[a.pr.D()-1][i] = 0
	}
}

// arrayDims returns the dimension extents of array j (all dims except j).
func arrayDims(pr Problem, j int) []int {
	var out []int
	for i, n := range pr.N {
		if i != j {
			out = append(out, n)
		}
	}
	return out
}

// strides returns row-major strides for the given extents.
func strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// Serial computes the reference result: for every lattice point, multiply
// the d−1 input values and accumulate into the output array.
func Serial(pr Problem, seed uint64) *Arrays {
	a := NewArrays(pr)
	a.Randomize(seed)
	d := pr.D()
	point := make([]int, d)
	strideOf := make([][]int, d)
	for j := 0; j < d; j++ {
		strideOf[j] = strides(arrayDims(pr, j))
	}
	offset := func(j int) int {
		o, s := 0, 0
		for i := 0; i < d; i++ {
			if i == j {
				continue
			}
			o += point[i] * strideOf[j][s]
			s++
		}
		return o
	}
	for {
		prod := 1.0
		for j := 0; j < d-1; j++ {
			prod *= a.Data[j][offset(j)]
		}
		a.Data[d-1][offset(d-1)] += prod
		// Odometer increment.
		i := d - 1
		for ; i >= 0; i-- {
			point[i]++
			if point[i] < pr.N[i] {
				break
			}
			point[i] = 0
		}
		if i < 0 {
			return a
		}
	}
}

// SimResult is the outcome of a simulated parallel run.
type SimResult struct {
	// Output is the assembled output array (flat, row-major over the
	// output's dimensions).
	Output []float64
	// Stats are the machine statistics.
	Stats machine.WorldStats
	// Grid is the processor grid used.
	Grid Grid
}

// Run executes the Algorithm 1 generalization on the simulated machine:
// every rank All-Gathers each input-array block over that array's fiber,
// multiplies over its local brick, and Reduce-Scatters the output block
// over the output fiber. Inputs start distributed one-copy (each block
// spread evenly over its fiber); the output ends one-copy.
func Run(pr Problem, g Grid, seed uint64, cfg machine.Config) (*SimResult, error) {
	d := pr.D()
	if len(g.Dims) != d {
		return nil, fmt.Errorf("extension: %d-d grid for %d-d problem", len(g.Dims), d)
	}
	for i := range pr.N {
		if g.Dims[i] < 1 {
			return nil, fmt.Errorf("extension: grid %v has a non-positive extent: %w", g, core.ErrBadProcessorCount)
		}
		if g.Dims[i] > pr.N[i] {
			return nil, fmt.Errorf("extension: grid %v exceeds dims %v", g, pr.N)
		}
	}
	full := NewArrays(pr)
	full.Randomize(seed)

	p := g.Size()
	w, err := machine.New(p, cfg)
	if err != nil {
		return nil, err
	}
	chunks := make([][]float64, p)
	runErr := w.Run(func(r *machine.Rank) {
		coords := g.Coords(r.ID())
		// Brick ranges per dimension.
		lo := make([]int, d)
		sz := make([]int, d)
		for i := 0; i < d; i++ {
			lo[i] = matrix.PartStart(pr.N[i], g.Dims[i], coords[i])
			sz[i] = matrix.PartSize(pr.N[i], g.Dims[i], coords[i])
		}

		// Gather each input-array block over its fiber.
		blocks := make([][]float64, d)
		blockDims := make([][]int, d)
		for j := 0; j < d; j++ {
			blockDims[j] = blockExtents(sz, j)
		}
		for j := 0; j < d-1; j++ {
			packed := extractBlock(full.Data[j], arrayDims(pr, j), bounds(lo, sz, j))
			counts := matrix.PartSizes(make([]int, g.Dims[j]), len(packed))
			off := matrix.PartStart(len(packed), g.Dims[j], coords[j])
			share := packed[off : off+counts[coords[j]]]
			var grp collective.Group
			grp.Init(r, g.Fiber(r.ID(), j), j+1, collective.Auto)
			r.SetPhase(fmt.Sprintf("gather-%d", j))
			blocks[j] = grp.AllGatherVInto(share, counts, make([]float64, len(packed)))
			r.GrowMemory(float64(len(blocks[j])))
		}
		r.SetPhase("")

		// Local computation over the brick.
		outDims := blockDims[d-1]
		outStrides := strides(outDims)
		out := make([]float64, volume(outDims))
		r.GrowMemory(float64(len(out)))
		inStrides := make([][]int, d-1)
		for j := 0; j < d-1; j++ {
			inStrides[j] = strides(blockDims[j])
		}
		point := make([]int, d)
		flops := 1.0
		for _, s := range sz {
			flops *= float64(s)
		}
		r.Compute(flops * float64(d-1))
		if flops > 0 {
			for {
				prod := 1.0
				for j := 0; j < d-1; j++ {
					prod *= blocks[j][localOffset(point, j, inStrides[j])]
				}
				out[localOffset(point, d-1, outStrides)] += prod
				i := d - 1
				for ; i >= 0; i-- {
					point[i]++
					if point[i] < sz[i] {
						break
					}
					point[i] = 0
				}
				if i < 0 {
					break
				}
			}
		}

		// Reduce-Scatter the output block over its fiber.
		counts := matrix.PartSizes(make([]int, g.Dims[d-1]), len(out))
		var grp collective.Group
		grp.Init(r, g.Fiber(r.ID(), d-1), d+1, collective.Auto)
		r.SetPhase("reduce-out")
		chunks[r.ID()] = grp.ReduceScatterV(out, counts)
		r.SetPhase("")
	})
	if runErr != nil {
		return nil, runErr
	}

	// Assemble the output array.
	output := assembleOutput(pr, g, chunks)
	return &SimResult{Output: output, Stats: w.Stats(), Grid: g}, nil
}

// bounds returns per-dimension (lo, size) pairs of array j's block,
// skipping dimension j.
func bounds(lo, sz []int, j int) [][2]int {
	var out [][2]int
	for i := range lo {
		if i != j {
			out = append(out, [2]int{lo[i], sz[i]})
		}
	}
	return out
}

// blockExtents returns sz with entry j removed.
func blockExtents(sz []int, j int) []int {
	var out []int
	for i, s := range sz {
		if i != j {
			out = append(out, s)
		}
	}
	return out
}

// volume multiplies extents.
func volume(dims []int) int {
	v := 1
	for _, d := range dims {
		v *= d
	}
	return v
}

// localOffset maps brick-local point coordinates to the offset within the
// block of array j (which omits dimension j).
func localOffset(point []int, j int, strd []int) int {
	o, s := 0, 0
	for i := range point {
		if i == j {
			continue
		}
		o += point[i] * strd[s]
		s++
	}
	return o
}

// extractBlock copies the sub-cuboid of a flat row-major array given
// per-dimension (lo, size) bounds.
func extractBlock(data []float64, dims []int, b [][2]int) []float64 {
	strd := strides(dims)
	out := make([]float64, 0, volumeOfBounds(b))
	point := make([]int, len(b))
	if volumeOfBounds(b) == 0 {
		return out
	}
	for {
		o := 0
		for i := range point {
			o += (b[i][0] + point[i]) * strd[i]
		}
		out = append(out, data[o])
		i := len(point) - 1
		for ; i >= 0; i-- {
			point[i]++
			if point[i] < b[i][1] {
				break
			}
			point[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func volumeOfBounds(b [][2]int) int {
	v := 1
	for _, x := range b {
		v *= x[1]
	}
	return v
}

// writeBlock writes packed into the sub-cuboid of a flat row-major array.
func writeBlock(data []float64, dims []int, b [][2]int, packed []float64) {
	strd := strides(dims)
	if volumeOfBounds(b) == 0 {
		return
	}
	point := make([]int, len(b))
	idx := 0
	for {
		o := 0
		for i := range point {
			o += (b[i][0] + point[i]) * strd[i]
		}
		data[o] = packed[idx]
		idx++
		i := len(point) - 1
		for ; i >= 0; i-- {
			point[i]++
			if point[i] < b[i][1] {
				break
			}
			point[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// assembleOutput reconstructs the global output array from per-rank
// reduce-scatter chunks: for each output block (fixed coords on all axes
// except d−1), concatenate the chunks of the axis-(d−1) fiber in order.
func assembleOutput(pr Problem, g Grid, chunks [][]float64) []float64 {
	d := pr.D()
	outDims := arrayDims(pr, d-1)
	output := make([]float64, int(pr.ArraySize(d-1)))
	// Iterate over all grid cells with coords[d-1] = 0; each defines one
	// output block.
	coords := make([]int, d)
	for {
		// Compute the block bounds of this cell.
		lo := make([]int, d)
		sz := make([]int, d)
		for i := 0; i < d; i++ {
			lo[i] = matrix.PartStart(pr.N[i], g.Dims[i], coords[i])
			sz[i] = matrix.PartSize(pr.N[i], g.Dims[i], coords[i])
		}
		var packed []float64
		for v := 0; v < g.Dims[d-1]; v++ {
			coords[d-1] = v
			packed = append(packed, chunks[g.Rank(coords)]...)
		}
		coords[d-1] = 0
		writeBlock(output, outDims, bounds(lo, sz, d-1), packed)
		// Next cell (skip axis d-1).
		i := d - 2
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < g.Dims[i] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return output
		}
	}
}
