package extension

import (
	"fmt"
	"slices"

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
		copy(a.Data[j], input(a.pr, j, seed))
	}
	for i := range a.Data[a.pr.D()-1] {
		a.Data[a.pr.D()-1][i] = 0
	}
}

// input returns input array j of pr drawn from seed: the values Randomize
// fills in and Run distributes.
func input(pr Problem, j int, seed uint64) []float64 {
	return matrix.Random(1, int(pr.ArraySize(j)), seed+uint64(j)).Row(0)
}

// Serial computes the reference result: for every lattice point, multiply
// the d−1 input values and accumulate into the output array.
func Serial(pr Problem, seed uint64) *Arrays {
	a := NewArrays(pr)
	a.Randomize(seed)
	d := pr.D()
	s := make([]int, d*d)
	for j := range d {
		blockStrides(s[j*d:(j+1)*d], pr.N, j)
	}
	point := make([]int, d)
	for {
		prod := 1.0
		for j := range d - 1 {
			prod *= a.Data[j][dot(point, s[j*d:(j+1)*d])]
		}
		a.Data[d-1][dot(point, s[(d-1)*d:])] += prod
		if !next(point, pr.N) {
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
// spread evenly over its fiber); the output ends one-copy. A grid of the
// wrong order, or one that splits a dimension finer than its extent, wraps
// core.ErrGridMismatch.
//
// Each rank packs only its share of each input block, straight into its
// slot of a pooled gather output, and gathers in place; the gathered blocks
// and the output block sit end to end in one pooled buffer, and the output
// block is reduced in place. Its coordinates, brick, block strides, fiber
// members and share counts all live in one int slab.
func Run(pr Problem, g Grid, seed uint64, cfg machine.Config) (*SimResult, error) {
	d := pr.D()
	if len(g.Dims) != d {
		return nil, fmt.Errorf("extension: %d-d grid for %d-d problem: %w", len(g.Dims), d, core.ErrGridMismatch)
	}
	for i := range pr.N {
		if g.Dims[i] < 1 {
			return nil, fmt.Errorf("extension: grid %v has a non-positive extent: %w", g, core.ErrBadProcessorCount)
		}
		if g.Dims[i] > pr.N[i] {
			return nil, fmt.Errorf("extension: grid %v exceeds dims %v: %w", g, pr.N, core.ErrGridMismatch)
		}
	}
	// Only the inputs are drawn; the output is assembled from the ranks'
	// chunks.
	inputs := make([][]float64, d-1)
	for j := range inputs {
		inputs[j] = input(pr, j, seed)
	}

	p := g.Size()
	w, err := machine.New(p, cfg)
	if err != nil {
		return nil, err
	}
	// Shared read-only by the ranks: array j's row-major strides over the
	// dimensions it spans, at arrStrides[j*d:], with 0 at dimension j, the
	// phase labels, and the largest fiber.
	arrStrides := make([]int, d*d)
	for j := range d {
		blockStrides(arrStrides[j*d:(j+1)*d], pr.N, j)
	}
	phases := make([]string, d)
	for j := range d - 1 {
		phases[j] = fmt.Sprintf("gather-%d", j)
	}
	phases[d-1] = "reduce-out"
	maxFiber := slices.Max(g.Dims)
	chunks := make([][]float64, p)
	runErr := w.Run(func(r *machine.Rank) {
		// The slab holds the rank's coordinates, its brick's start and
		// size, each block's strides over the brick (laid out as
		// arrStrides) and offset in the float buffer, a point of the
		// brick, and one fiber's members and share counts.
		slab := make([]int, d*d+5*d+2*maxFiber)
		coords, slab := g.coordsOf(r.ID(), slab[:d]), slab[d:]
		lo, slab := slab[:d], slab[d:]
		sz, slab := slab[:d], slab[d:]
		blkStrides, slab := slab[:d*d], slab[d*d:]
		base, slab := slab[:d], slab[d:]
		point, slab := slab[:d], slab[d:]
		members, counts := slab[:maxFiber], slab[maxFiber:]
		brick(pr, g, coords, lo, sz)
		size := 0
		for j := range d {
			base[j] = size
			size += blockStrides(blkStrides[j*d:(j+1)*d], sz, j)
		}
		buf := r.GetBuffer(size)

		// Gather each input-array block over its fiber.
		for j := range d - 1 {
			blk := buf[base[j]:base[j+1]]
			cnt := matrix.PartSizes(counts[:g.Dims[j]], len(blk))
			at := matrix.PartStart(len(blk), g.Dims[j], coords[j])
			end := at + cnt[coords[j]]
			for k := at; k < end; k++ {
				blk[k] = inputs[j][blockWord(k, arrStrides[j*d:(j+1)*d], lo, sz, j)]
			}
			var grp collective.Group
			grp.Init(r, g.fiberOf(coords, j, members[:g.Dims[j]]), j+1, collective.Auto)
			r.SetPhase(phases[j])
			grp.AllGatherVInto(blk[at:end], cnt, blk)
			r.GrowMemory(float64(len(blk)))
		}
		r.SetPhase("")

		// Local computation over the brick, accumulating the output block.
		out := buf[base[d-1]:]
		clear(out)
		r.GrowMemory(float64(len(out)))
		flops := 1.0
		for _, s := range sz {
			flops *= float64(s)
		}
		r.Compute(flops * float64(d-1))
		for {
			prod := 1.0
			for j := range d - 1 {
				prod *= buf[base[j]+dot(point, blkStrides[j*d:(j+1)*d])]
			}
			out[dot(point, blkStrides[(d-1)*d:])] += prod
			if !next(point, sz) {
				break
			}
		}

		// Reduce-Scatter the output block over its fiber; it is dead once
		// reduced, so it serves as its own scratch.
		cnt := matrix.PartSizes(counts[:g.Dims[d-1]], len(out))
		mine := make([]float64, cnt[coords[d-1]])
		var grp collective.Group
		grp.Init(r, g.fiberOf(coords, d-1, members[:g.Dims[d-1]]), d+1, collective.Auto)
		r.SetPhase(phases[d-1])
		chunks[r.ID()] = grp.ReduceScatterVInto(out, cnt, mine, out)
		r.SetPhase("")
		r.PutBuffer(buf)
	})
	if runErr != nil {
		return nil, runErr
	}

	// Assemble the output array.
	output := assembleOutput(pr, g, chunks)
	return &SimResult{Output: output, Stats: w.Stats(), Grid: g}, nil
}

// brick writes into lo and sz the start and extent, per dimension, of the
// brick of the iteration space that the rank at coords computes.
func brick(pr Problem, g Grid, coords, lo, sz []int) {
	for i := range coords {
		lo[i] = matrix.PartStart(pr.N[i], g.Dims[i], coords[i])
		sz[i] = matrix.PartSize(pr.N[i], g.Dims[i], coords[i])
	}
}

// blockStrides writes into s the row-major strides of the cuboid with
// extents ext less dimension j, one per dimension and 0 at j, and returns
// the cuboid's size: the layout of array j over the whole space, or of its
// block over a brick.
func blockStrides(s, ext []int, j int) int {
	acc := 1
	for i := len(ext) - 1; i >= 0; i-- {
		s[i] = 0
		if i != j {
			s[i] = acc
			acc *= ext[i]
		}
	}
	return acc
}

// blockWord returns the offset, in array j with strides s, of word w of the
// array's block that the brick (lo, sz) spans.
func blockWord(w int, s, lo, sz []int, j int) int {
	off := 0
	for i := len(sz) - 1; i >= 0; i-- {
		if i != j {
			off += (lo[i] + w%sz[i]) * s[i]
			w /= sz[i]
		}
	}
	return off
}

// dot returns the offset of point under strides s.
func dot(point, s []int) int {
	o := 0
	for i, v := range point {
		o += v * s[i]
	}
	return o
}

// next advances point to the next point of the cuboid with extents ext,
// last dimension fastest, and reports false once it wraps back to the
// origin.
func next(point, ext []int) bool {
	for i := len(point) - 1; i >= 0; i-- {
		point[i]++
		if point[i] < ext[i] {
			return true
		}
		point[i] = 0
	}
	return false
}

// assembleOutput reconstructs the global output array from the ranks'
// Reduce-Scatter chunks: each rank's chunk is its share, by packed word
// range over its output fiber, of the output block its brick spans.
func assembleOutput(pr Problem, g Grid, chunks [][]float64) []float64 {
	d := pr.D()
	scratch := make([]int, 4*d)
	s, coords, lo, sz := scratch[:d], scratch[d:2*d], scratch[2*d:3*d], scratch[3*d:]
	output := make([]float64, blockStrides(s, pr.N, d-1))
	for r, chunk := range chunks {
		brick(pr, g, g.coordsOf(r, coords), lo, sz)
		size := 1
		for _, n := range sz[:d-1] {
			size *= n
		}
		at := matrix.PartStart(size, g.Dims[d-1], coords[d-1])
		for k, v := range chunk {
			output[blockWord(at+k, s, lo, sz, d-1)] = v
		}
	}
	return output
}
