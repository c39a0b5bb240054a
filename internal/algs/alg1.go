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
	l, err := newLayout3D(a, b, p, 1, opts)
	if err != nil {
		return nil, err
	}
	g := l.g
	// AllToAll3D sums C with an All-to-All, which every family runs alike.
	reduced := g.P2
	if !reduceScatter {
		reduced = 1
	}
	if err := collective.CheckGroups(opts.Collective, g.P3, g.P1, reduced); err != nil {
		return nil, err
	}
	return run(name, l.d, g, opts, func(r *machine.Rank) []float64 {
		id := r.ID()
		i1, i2, i3 := g.Coords(id)
		oA, oB, oC := g.FiberOffset(id, grid.Axis3), g.FiberOffset(id, grid.Axis1), g.FiberOffset(id, grid.Axis2)

		// Initial one-copy distribution: the A block (i1, i2) is spread
		// evenly (as packed word ranges) over the Axis3 fiber, the B block
		// (i2, i3) over the Axis1 fiber — exactly the layout of §5.
		aBlk := matrix.BlockView(a, g.P1, g.P2, i1, i2)
		bBlk := matrix.BlockView(b, g.P2, g.P3, i2, i3)
		r.GrowMemory(float64(l.cntA[oA+i3] + l.cntB[oB+i1]))

		// Line 3: A_{p1'p2'} = All-Gather over (p1', p2', :). The rank packs
		// only its share of the block, straight into its slot of the gather
		// output, and gathers in place. The output is a pooled buffer that
		// serves directly (wrapped, no copy) as the local gathered block.
		r.SetPhase(PhaseGatherA)
		fullA := r.GetBuffer(aBlk.Size())
		loA, hiA := shareRange(len(fullA), g.P3, i3)
		var grpA collective.Group
		grpA.Init(r, l.fibA[oA:oA+g.P3], 1, opts.Collective)
		grpA.AllGatherVInto(aBlk.PackRangeInto(fullA[loA:hiA], loA, hiA), l.cntA[oA:oA+g.P3], fullA)
		r.GrowMemory(float64(len(fullA) - (hiA - loA)))

		// Line 4: B_{p2'p3'} = All-Gather over (:, p2', p3').
		r.SetPhase(PhaseGatherB)
		fullB := r.GetBuffer(bBlk.Size())
		loB, hiB := shareRange(len(fullB), g.P1, i1)
		var grpB collective.Group
		grpB.Init(r, l.fibB[oB:oB+g.P1], 2, opts.Collective)
		grpB.AllGatherVInto(bBlk.PackRangeInto(fullB[loB:hiB], loB, hiB), l.cntB[oB:oB+g.P1], fullB)
		r.GrowMemory(float64(len(fullB) - (hiB - loB)))

		// Line 6: local computation D = A_{p1'p2'} · B_{p2'p3'}. D lives in
		// a pooled buffer that doubles as its packed form for Line 8 (a
		// wrapped matrix is contiguous row-major by construction).
		r.SetPhase("")
		gatheredA := matrix.Wrap(aBlk.Rows(), aBlk.Cols(), fullA)
		gatheredB := matrix.Wrap(bBlk.Rows(), bBlk.Cols(), fullB)
		packedD := r.GetBuffer(gatheredA.Rows() * gatheredB.Cols())
		clear(packedD)
		dBlk := matrix.Wrap(gatheredA.Rows(), gatheredB.Cols(), packedD)
		localMulAdd(r, &dBlk, &gatheredA, &gatheredB)
		r.GrowMemory(float64(dBlk.Size()))
		r.PutBuffer(fullA)
		r.PutBuffer(fullB)

		// Line 8: C contributions summed over (p1', :, p3').
		countsC := l.cntC[oC : oC+g.P2]
		r.SetPhase(PhaseReduceC)
		var grpC collective.Group
		grpC.Init(r, l.fibC[oC:oC+g.P2], 3, opts.Collective)
		myC := make([]float64, countsC[i2])
		if reduceScatter {
			// D is dead once reduced, so it serves as its own scratch.
			grpC.ReduceScatterVInto(packedD, countsC, myC, packedD)
		} else {
			// All-to-All the per-destination chunks, then sum them locally
			// in member order.
			recvd := r.GetBuffer(g.P2 * len(myC))
			grpC.AllToAllVInto(packedD, countsC, recvd)
			for j := range g.P2 {
				for i, v := range recvd[j*len(myC) : (j+1)*len(myC)] {
					myC[i] += v
				}
			}
			r.PutBuffer(recvd)
			if g.P2 > 1 {
				r.Compute(float64((g.P2 - 1) * len(myC)))
			}
		}
		r.PutBuffer(packedD)
		r.SetPhase("")
		r.GrowMemory(float64(len(myC)))
		return myC
	})
}

// layout3D is what the ranks of a 3D run read alike, laid out once per run
// and shared read-only. Every member of a fiber runs its collective over the
// same member list with the same share counts, so the fibers of each axis
// sit fiber after fiber in one table (see grid.Fibers), and beside each
// member sits its share of its fiber's block. A and B have one count table
// of P entries per strip of the contracted dimension, strip after strip:
// Algorithm 1 gathers its panels as one strip, Alg1LowMem as several.
type layout3D struct {
	d core.Dims
	g grid.Grid
	// fibA, fibB and fibC list the fibers of Axis3, Axis1 and Axis2: the A
	// gather, the B gather and the C reduction run on them.
	fibA, fibB, fibC []int
	cntA, cntB, cntC []int
}

// newLayout3D checks a 3D run of a·b on p ≥ 1 processors and lays out its
// tables. The grid is opts.Grid, which dimsOf validates, or grid.Optimal
// when that is zero; it must have p processors and split no dimension
// finer than its extent. A rank whose block has k columns of A splits them
// into min(strips, k) strips under the balanced partition, as do the other
// members of its A and B fibers, which share its k.
func newLayout3D(a, b *matrix.Dense, p, strips int, opts Opts) (*layout3D, error) {
	d, err := dimsOf(a, b, p, opts)
	if err != nil {
		return nil, err
	}
	g := opts.Grid
	if g == (grid.Grid{}) {
		g = grid.Optimal(d, p)
	}
	if g.Size() != p {
		return nil, fmt.Errorf("algs: grid %v has %d processors, want %d: %w", g, g.Size(), p, core.ErrGridMismatch)
	}
	if g.P1 > d.N1 || g.P2 > d.N2 || g.P3 > d.N3 {
		return nil, fmt.Errorf("algs: grid %v exceeds dims %v: %w", g, d, core.ErrGridMismatch)
	}

	// The first block of the contracted dimension is the widest.
	strips = min(strips, matrix.PartSize(d.N2, g.P2, 0))
	l := &layout3D{
		d: d, g: g,
		fibA: g.Fibers(grid.Axis3), fibB: g.Fibers(grid.Axis1), fibC: g.Fibers(grid.Axis2),
		cntA: make([]int, strips*p), cntB: make([]int, strips*p), cntC: make([]int, p),
	}
	for id := range p {
		i1, i2, i3 := g.Coords(id)
		m, k, n := matrix.PartSize(d.N1, g.P1, i1), matrix.PartSize(d.N2, g.P2, i2), matrix.PartSize(d.N3, g.P3, i3)
		oA, oB := g.FiberOffset(id, grid.Axis3)+i3, g.FiberOffset(id, grid.Axis1)+i1
		ns := min(strips, k)
		for s := range ns {
			kw := matrix.PartSize(k, ns, s)
			l.cntA[s*p+oA] = matrix.PartSize(m*kw, g.P3, i3)
			l.cntB[s*p+oB] = matrix.PartSize(kw*n, g.P1, i1)
		}
		l.cntC[g.FiberOffset(id, grid.Axis2)+i2] = matrix.PartSize(m*n, g.P2, i2)
	}
	return l, nil
}
