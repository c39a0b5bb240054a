package algs

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// TwoPointFiveD runs the Solomonik-Demmel 2.5D algorithm for square n×n
// multiplication on a q×q×c grid with P = q²·c: the inputs are replicated
// across the c layers, each layer executes 1/c of the Cannon rounds at its
// own offset, and the partial C contributions are Reduce-Scattered across
// layers. The replication trades c× memory for roughly sqrt(c)× less
// bandwidth — the classical memory/communication trade-off the paper's
// §6.2 situates between the memory-dependent and memory-independent bounds.
//
// c = 1 degenerates to Cannon; c = q = P^{1/3} reaches the 3D regime.
// Requirements: n1 = n2 = n3 = n, P = q²c with c | q and q | n.
func TwoPointFiveD(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b, p, opts)
	if err != nil {
		return nil, err
	}
	if d.N1 != d.N2 || d.N2 != d.N3 {
		return nil, fmt.Errorf("algs: TwoPointFiveD requires square matrices, got %v: %w", d, core.ErrBadDims)
	}
	n := d.N1
	c := opts.Layers
	if c == 0 {
		c = ChooseLayers(p)
	}
	if c < 1 || p%c != 0 {
		return nil, fmt.Errorf("algs: TwoPointFiveD layers c=%d does not divide P=%d: %w", c, p, core.ErrBadProcessorCount)
	}
	q := int(math.Round(math.Sqrt(float64(p / c))))
	if q*q*c != p {
		return nil, fmt.Errorf("algs: TwoPointFiveD needs P = q²c, got P=%d c=%d: %w", p, c, core.ErrBadProcessorCount)
	}
	if q%c != 0 {
		return nil, fmt.Errorf("algs: TwoPointFiveD needs c | q, got q=%d c=%d: %w", q, c, core.ErrBadProcessorCount)
	}
	if n%q != 0 {
		return nil, fmt.Errorf("algs: TwoPointFiveD needs q | n, got n=%d q=%d: %w", n, q, core.ErrGridMismatch)
	}
	if err := collective.CheckGroups(opts.Collective, c); err != nil {
		return nil, err
	}

	g := grid.Grid{P1: q, P2: c, P3: q} // Axis2 indexes the replication layer
	const (
		tagAlignA = 200
		tagAlignB = 201
		tagShiftA = 202
		tagShiftB = 203
	)
	rounds := q / c
	// The layer fibers, and the even split of a C block over a fiber's
	// layers (every block has (n/q)² words), shared read-only by the ranks.
	layers := g.Fibers(grid.Axis2)
	counts := matrix.PartSizes(make([]int, c), (n/q)*(n/q))
	return run("TwoPointFiveD", d, g, opts, func(r *machine.Rank) []float64 {
		i, l, j := g.Coords(r.ID())
		blk := n / q

		// Replication: layer 0 owns the canonical block distribution; the
		// layer fiber broadcasts A and B blocks to all layers. Each block
		// lives packed in one pooled buffer, the root's pack buffer or the
		// payload a non-root receives, which the align and shift exchanges
		// below overwrite in place and the multiply reads wrapped.
		var packedA, packedB []float64
		if l == 0 {
			aView := matrix.BlockView(a, q, q, i, j)
			bView := matrix.BlockView(b, q, q, i, j)
			packedA = aView.PackInto(r.GetBuffer(blk * blk))
			packedB = bView.PackInto(r.GetBuffer(blk * blk))
		}
		oLayer := g.FiberOffset(r.ID(), grid.Axis2)
		var layerGrp collective.Group
		layerGrp.Init(r, layers[oLayer:oLayer+c], 3, opts.Collective)
		r.SetPhase("replicate")
		packedA = layerGrp.Bcast(packedA, 0)
		packedB = layerGrp.Bcast(packedB, 0)
		aBlk := matrix.Wrap(blk, blk, packedA)
		bBlk := matrix.Wrap(blk, blk, packedB)
		r.GrowMemory(float64(2 * 2 * blk * blk)) // blocks + shift buffers

		// Alignment: layer l starts its Cannon rounds at contraction
		// offset o = l·q/c, so processor (i, l, j) needs
		// A(i, (i+j+o) mod q) and B((i+j+o) mod q, j).
		o := l * rounds
		r.SetPhase("align")
		if q > 1 && (i+o)%q != 0 {
			dst := g.Rank(i, l, ((j-i-o)%q+q)%q)
			src := g.Rank(i, l, (j+i+o)%q)
			exchangeBlock(r, dst, src, tagAlignA, packedA)
		}
		if q > 1 && (j+o)%q != 0 {
			dst := g.Rank(((i-j-o)%q+q)%q, l, j)
			src := g.Rank((i+j+o)%q, l, j)
			exchangeBlock(r, dst, src, tagAlignB, packedB)
		}

		// The layer's partial sum accumulates in a pooled buffer, packed
		// as the Reduce-Scatter reads it.
		packedC := r.GetBuffer(blk * blk)
		clear(packedC)
		cBlk := matrix.Wrap(blk, blk, packedC)
		r.GrowMemory(float64(blk * blk))
		r.SetPhase("")
		for s := 0; s < rounds; s++ {
			localMulAdd(r, &cBlk, &aBlk, &bBlk)
			if s == rounds-1 {
				break
			}
			r.SetPhase("shift")
			left := g.Rank(i, l, (j-1+q)%q)
			right := g.Rank(i, l, (j+1)%q)
			exchangeBlock(r, left, right, tagShiftA, packedA)
			up := g.Rank((i-1+q)%q, l, j)
			down := g.Rank((i+1)%q, l, j)
			exchangeBlock(r, up, down, tagShiftB, packedB)
			r.SetPhase("")
		}
		r.PutBuffer(packedA)
		r.PutBuffer(packedB)

		// Combine the layers' partial sums: Reduce-Scatter over the layer
		// fiber leaves C block (i, j) spread evenly across layers. The
		// partial sum is dead once reduced, so it serves as its own
		// scratch.
		r.SetPhase(PhaseReduceC)
		myC := layerGrp.ReduceScatterVInto(packedC, counts, make([]float64, counts[l]), packedC)
		r.PutBuffer(packedC)
		r.SetPhase("")
		return myC
	})
}

// ChooseLayers returns the largest replication factor c such that
// P = q²·c with integers q and c | q — the most communication-efficient
// 2.5D configuration for P when memory permits (c = P^{1/3} when P is a
// perfect cube, recovering the 3D algorithm's volume).
func ChooseLayers(p int) int {
	best := 1
	for c := 1; c*c*c <= p; c++ {
		if p%c != 0 {
			continue
		}
		q := int(math.Round(math.Sqrt(float64(p / c))))
		if q*q*c == p && q%c == 0 && c > best {
			best = c
		}
	}
	return best
}
