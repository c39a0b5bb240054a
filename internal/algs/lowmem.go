package algs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// Alg1LowMem implements the §6.2 adaptation of Algorithm 1: "Alg. 1 can be
// adapted to reduce the temporary memory required to a negligible amount at
// the expense of higher latency cost but without affecting the bandwidth
// cost." Instead of All-Gathering the full A and B panels before the local
// multiplication, the contracted dimension of the panels is processed in
// `chunks` slices: each step All-Gathers only a 1/chunks strip of each
// panel, multiplies it into the local C contribution, and releases it. The
// words moved are identical (the strips partition the panels); the latency
// grows by the factor `chunks`; the peak temporary memory for the gathered
// panels drops by the same factor. The C contribution buffer is unchanged —
// in the 3D case it is the component that cannot shrink without raising
// bandwidth, which is exactly the paper's caveat for 3D grids.
func Alg1LowMem(a, b *matrix.Dense, p, chunks int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b)
	if err != nil {
		return nil, err
	}
	if chunks < 1 {
		return nil, fmt.Errorf("algs: Alg1LowMem needs chunks ≥ 1, got %d: %w", chunks, core.ErrBadOpts)
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

	return run("Alg1LowMem", d, g, opts, func(r *machine.Rank) []float64 {
		i1, i2, i3 := g.Coords(r.ID())
		aBlk := matrix.BlockOf(a, g.P1, g.P2, i1, i2)
		bBlk := matrix.BlockOf(b, g.P2, g.P3, i2, i3)
		kLocal := aBlk.Cols() // == bBlk.Rows(): the local contracted extent

		grpA := collective.NewGroup(r, g.Fiber(r.ID(), grid.Axis3), 1, opts.Collective)
		grpB := collective.NewGroup(r, g.Fiber(r.ID(), grid.Axis1), 2, opts.Collective)

		dBlk := matrix.New(aBlk.Rows(), bBlk.Cols())
		r.GrowMemory(float64(dBlk.Size()))
		nChunks := chunks
		if nChunks > kLocal {
			nChunks = kLocal
		}
		if nChunks == 0 {
			nChunks = 1
		}
		for s := 0; s < nChunks; s++ {
			k0 := matrix.PartStart(kLocal, nChunks, s)
			kw := matrix.PartSize(kLocal, nChunks, s)
			if kw == 0 {
				continue
			}
			// Strip s of the A panel: columns [k0, k0+kw) of the block,
			// still distributed over the Axis3 fiber by packed ranges.
			aStrip := aBlk.View(0, k0, aBlk.Rows(), kw)
			packedA := aStrip.Pack()
			countsA := matrix.PartSizes(make([]int, g.P3), len(packedA))
			loA, hiA := shareRange(len(packedA), g.P3, i3)
			r.SetPhase(PhaseGatherA)
			fullA := grpA.AllGatherV(packedA[loA:hiA], countsA)
			r.GrowMemory(float64(len(fullA)))
			gatheredA := matrix.New(aBlk.Rows(), kw)
			gatheredA.Unpack(fullA)

			bStrip := bBlk.View(k0, 0, kw, bBlk.Cols())
			packedB := bStrip.Pack()
			countsB := matrix.PartSizes(make([]int, g.P1), len(packedB))
			loB, hiB := shareRange(len(packedB), g.P1, i1)
			r.SetPhase(PhaseGatherB)
			fullB := grpB.AllGatherV(packedB[loB:hiB], countsB)
			r.GrowMemory(float64(len(fullB)))
			gatheredB := matrix.New(kw, bBlk.Cols())
			gatheredB.Unpack(fullB)

			r.SetPhase("")
			localMulAdd(r, dBlk, gatheredA, gatheredB, opts.Workers)
			// Strips are dead after accumulation.
			r.ShrinkMemory(float64(len(fullA) + len(fullB)))
		}

		packedD := dBlk.Pack()
		countsC := matrix.PartSizes(make([]int, g.P2), len(packedD))
		grpC := collective.NewGroup(r, g.Fiber(r.ID(), grid.Axis2), 3, opts.Collective)
		r.SetPhase(PhaseReduceC)
		myC := grpC.ReduceScatterV(packedD, countsC)
		r.SetPhase("")
		return myC
	})
}
