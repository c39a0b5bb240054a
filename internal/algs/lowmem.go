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
//
// With one chunk it moves exactly what Alg1 moves; each strip travels as
// Alg1's whole panels do, packed into its slot of a pooled gather output
// and gathered in place.
func Alg1LowMem(a, b *matrix.Dense, p, chunks int, opts Opts) (*Result, error) {
	if chunks < 1 {
		return nil, fmt.Errorf("algs: Alg1LowMem needs chunks ≥ 1, got %d: %w", chunks, core.ErrBadOpts)
	}
	l, err := newLayout3D(a, b, p, chunks, opts.Grid)
	if err != nil {
		return nil, err
	}
	g := l.g

	return run("Alg1LowMem", l.d, g, opts, func(r *machine.Rank) []float64 {
		id := r.ID()
		i1, i2, i3 := g.Coords(id)
		oA, oB, oC := g.FiberOffset(id, grid.Axis3), g.FiberOffset(id, grid.Axis1), g.FiberOffset(id, grid.Axis2)
		aBlk := matrix.BlockView(a, g.P1, g.P2, i1, i2)
		bBlk := matrix.BlockView(b, g.P2, g.P3, i2, i3)
		var grpA, grpB, grpC collective.Group
		grpA.Init(r, l.fibA[oA:oA+g.P3], 1, opts.Collective)
		grpB.Init(r, l.fibB[oB:oB+g.P1], 2, opts.Collective)
		grpC.Init(r, l.fibC[oC:oC+g.P2], 3, opts.Collective)

		// D accumulates the strips' products in a pooled buffer that
		// doubles as its packed form for the reduction.
		packedD := r.GetBuffer(aBlk.Rows() * bBlk.Cols())
		clear(packedD)
		dBlk := matrix.Wrap(aBlk.Rows(), bBlk.Cols(), packedD)
		r.GrowMemory(float64(len(packedD)))
		strips := min(chunks, aBlk.Cols())
		for s := range strips {
			// Strip s of the A panel is column block s of the A block under
			// the balanced split of its contracted extent, and strip s of
			// the B panel the matching row block. Each is spread over its
			// fiber by packed word ranges, and the rank packs its share
			// straight into its slot of the gather output.
			aStrip := matrix.BlockView(&aBlk, 1, strips, 0, s)
			bStrip := matrix.BlockView(&bBlk, strips, 1, s, 0)
			at := s * p

			r.SetPhase(PhaseGatherA)
			fullA := r.GetBuffer(aStrip.Size())
			loA, hiA := shareRange(len(fullA), g.P3, i3)
			grpA.AllGatherVInto(aStrip.PackRangeInto(fullA[loA:hiA], loA, hiA), l.cntA[at+oA:at+oA+g.P3], fullA)
			r.GrowMemory(float64(len(fullA)))

			r.SetPhase(PhaseGatherB)
			fullB := r.GetBuffer(bStrip.Size())
			loB, hiB := shareRange(len(fullB), g.P1, i1)
			grpB.AllGatherVInto(bStrip.PackRangeInto(fullB[loB:hiB], loB, hiB), l.cntB[at+oB:at+oB+g.P1], fullB)
			r.GrowMemory(float64(len(fullB)))

			r.SetPhase("")
			gatheredA := matrix.Wrap(aStrip.Rows(), aStrip.Cols(), fullA)
			gatheredB := matrix.Wrap(bStrip.Rows(), bStrip.Cols(), fullB)
			localMulAdd(r, &dBlk, &gatheredA, &gatheredB)
			// Strips are dead after accumulation.
			r.PutBuffer(fullA)
			r.PutBuffer(fullB)
			r.ShrinkMemory(float64(len(fullA) + len(fullB)))
		}

		// D is dead once reduced, so it serves as its own scratch.
		countsC := l.cntC[oC : oC+g.P2]
		r.SetPhase(PhaseReduceC)
		myC := make([]float64, countsC[i2])
		grpC.ReduceScatterVInto(packedD, countsC, myC, packedD)
		r.PutBuffer(packedD)
		r.SetPhase("")
		return myC
	})
}
