package algs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// Phase labels used by the 3D algorithms for per-phase accounting.
const (
	PhaseGatherA = "allgather-A"
	PhaseGatherB = "allgather-B"
	PhaseReduceC = "reduce-C"
)

// Alg1 runs the paper's Algorithm 1 on p processors: organize them in a 3D
// grid, All-Gather the A panel over Axis3 fibers and the B panel over Axis1
// fibers, multiply locally, and Reduce-Scatter the C contributions over
// Axis2 fibers. With the §5.2 optimal grid (the default) its communication
// cost attains Theorem 3's lower bound exactly when the grid divides the
// dimensions.
func Alg1(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	return run3D("Alg1", a, b, p, opts, true)
}

// AllToAll3D runs the Agarwal et al. 1995 predecessor of Algorithm 1: the
// same 3D data movement for the inputs, but the C contributions are
// exchanged with an All-to-All and summed locally instead of a
// Reduce-Scatter. The bandwidth is identical; the message count (latency
// term) is higher — the paper's §5.1 notes this as the only difference.
func AllToAll3D(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	return run3D("AllToAll3D", a, b, p, opts, false)
}

func run3D(name string, a, b *matrix.Dense, p int, opts Opts, reduceScatter bool) (*Result, error) {
	d, err := dimsOf(a, b)
	if err != nil {
		return nil, err
	}
	g := opts.Grid
	if g == (grid.Grid{}) {
		g = grid.Optimal(d, p)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Size() != p {
		return nil, fmt.Errorf("algs: grid %v has %d processors, want %d: %w", g, g.Size(), p, core.ErrGridMismatch)
	}
	if g.P1 > d.N1 || g.P2 > d.N2 || g.P3 > d.N3 {
		return nil, fmt.Errorf("algs: grid %v exceeds dims %v: %w", g, d, core.ErrGridMismatch)
	}

	return run(name, d, g, opts, func(r *machine.Rank) []float64 {
		i1, i2, i3 := g.Coords(r.ID())

		// Initial one-copy distribution: the A block (i1, i2) is spread
		// evenly (as packed word ranges) over the Axis3 fiber, the B block
		// (i2, i3) over the Axis1 fiber — exactly the layout of §5.
		aBlk := matrix.BlockView(a, g.P1, g.P2, i1, i2)
		bBlk := matrix.BlockView(b, g.P2, g.P3, i2, i3)
		packedA := aBlk.PackInto(r.GetBuffer(aBlk.Size()))
		packedB := bBlk.PackInto(r.GetBuffer(bBlk.Size()))
		countsA := matrix.PartSizes(r.GetInts(g.P3), len(packedA))
		countsB := matrix.PartSizes(r.GetInts(g.P1), len(packedB))
		loA, hiA := shareRange(len(packedA), g.P3, i3)
		loB, hiB := shareRange(len(packedB), g.P1, i1)
		myA := packedA[loA:hiA]
		myB := packedB[loB:hiB]
		r.GrowMemory(float64(len(myA) + len(myB)))

		// Line 3: A_{p1'p2'} = All-Gather over (p1', p2', :). The gather
		// output is a pooled buffer that serves directly (wrapped, no copy)
		// as the local gathered block; groups live on the stack and return
		// their scratch on Release.
		r.SetPhase(PhaseGatherA)
		membersA := g.FiberInto(r.GetInts(g.P3), r.ID(), grid.Axis3)
		var grpA collective.Group
		grpA.Init(r, membersA, 1, opts.Collective)
		fullA := grpA.AllGatherVInto(myA, countsA, r.GetBuffer(len(packedA)))
		r.GrowMemory(float64(len(fullA) - len(myA)))
		gatheredA := matrix.Wrap(aBlk.Rows(), aBlk.Cols(), fullA)
		grpA.Release()
		r.PutInts(membersA)
		r.PutInts(countsA)
		r.PutBuffer(packedA)

		// Line 4: B_{p2'p3'} = All-Gather over (:, p2', p3').
		r.SetPhase(PhaseGatherB)
		membersB := g.FiberInto(r.GetInts(g.P1), r.ID(), grid.Axis1)
		var grpB collective.Group
		grpB.Init(r, membersB, 2, opts.Collective)
		fullB := grpB.AllGatherVInto(myB, countsB, r.GetBuffer(len(packedB)))
		r.GrowMemory(float64(len(fullB) - len(myB)))
		gatheredB := matrix.Wrap(bBlk.Rows(), bBlk.Cols(), fullB)
		grpB.Release()
		r.PutInts(membersB)
		r.PutInts(countsB)
		r.PutBuffer(packedB)

		// Line 6: local computation D = A_{p1'p2'} · B_{p2'p3'}. D lives in
		// a pooled buffer that doubles as its packed form for Line 8 (a
		// wrapped matrix is contiguous row-major by construction).
		r.SetPhase("")
		packedD := r.GetBuffer(gatheredA.Rows() * gatheredB.Cols())
		dBlk := matrix.Wrap(gatheredA.Rows(), gatheredB.Cols(), packedD)
		localMulIntoVal(r, dBlk, gatheredA, gatheredB, opts.Workers)
		r.GrowMemory(float64(dBlk.Size()))
		r.PutBuffer(fullA)
		r.PutBuffer(fullB)

		// Line 8: C contributions summed over (p1', :, p3').
		countsC := matrix.PartSizes(r.GetInts(g.P2), len(packedD))
		r.SetPhase(PhaseReduceC)
		membersC := g.FiberInto(r.GetInts(g.P2), r.ID(), grid.Axis2)
		var grpC collective.Group
		grpC.Init(r, membersC, 3, opts.Collective)
		var myC []float64
		if reduceScatter {
			myC = grpC.ReduceScatterV(packedD, countsC)
		} else {
			// All-to-All the per-destination chunks, then sum locally.
			blocks := make([][]float64, g.P2)
			off := 0
			for j, c := range countsC {
				blocks[j] = packedD[off : off+c]
				off += c
			}
			got := grpC.AllToAll(blocks)
			myC = make([]float64, countsC[i2])
			for j, blk := range got {
				if len(blk) != len(myC) {
					panic(fmt.Sprintf("algs: alltoall chunk %d has %d words, want %d", j, len(blk), len(myC)))
				}
				for i, v := range blk {
					myC[i] += v
				}
			}
			if g.P2 > 1 {
				r.Compute(float64((g.P2 - 1) * len(myC)))
			}
		}
		grpC.Release()
		r.PutInts(membersC)
		r.PutInts(countsC)
		r.PutBuffer(packedD)
		r.SetPhase("")
		r.GrowMemory(float64(len(myC)))
		return myC
	})
}
