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

// SUMMA runs the Scalable Universal Matrix Multiplication Algorithm (van de
// Geijn & Watts) on a pr×pc 2D processor grid with C stationary: the
// algorithm iterates over panels of the contracted dimension, broadcasting
// the current A panel within processor rows and the current B panel within
// processor columns, and accumulates local outer products.
//
// Grid selection: opts.Grid.P1×opts.Grid.P3 is used as pr×pc when set
// (P2 must be 1); otherwise the divisor pair minimizing the broadcast
// volume is chosen. The contracted dimension must be divisible by
// lcm(pr, pc) so panels nest in both distributions.
func SUMMA(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b, p)
	if err != nil {
		return nil, err
	}
	var pr, pc int
	if opts.Grid != (grid.Grid{}) {
		if opts.Grid.P2 != 1 {
			return nil, fmt.Errorf("algs: SUMMA grid must have P2 = 1, got %v: %w", opts.Grid, core.ErrGridMismatch)
		}
		pr, pc = opts.Grid.P1, opts.Grid.P3
	} else {
		pr, pc = summaGrid(d, p)
	}
	if pr*pc != p {
		return nil, fmt.Errorf("algs: SUMMA grid %dx%d has %d processors, want %d: %w", pr, pc, pr*pc, p, core.ErrGridMismatch)
	}
	if pr > d.N1 || pc > d.N3 {
		return nil, fmt.Errorf("algs: SUMMA grid %dx%d exceeds dims %v: %w", pr, pc, d, core.ErrGridMismatch)
	}
	steps := lcm(pr, pc)
	if d.N2%steps != 0 {
		return nil, fmt.Errorf("algs: SUMMA needs n2 divisible by lcm(pr,pc)=%d, got %d: %w", steps, d.N2, core.ErrGridMismatch)
	}
	panelW := d.N2 / steps

	g := grid.Grid{P1: pr, P2: 1, P3: pc}
	// Processor rows (same i1, varying i3) and columns (same i3, varying
	// i1), laid out once and shared read-only by the ranks.
	rows, cols := g.Fibers(grid.Axis3), g.Fibers(grid.Axis1)
	return run("SUMMA", d, g, opts, func(r *machine.Rank) []float64 {
		i1, _, i3 := g.Coords(r.ID())
		// Every matrix is distributed over the pr×pc grid: rank (i1, i3)
		// holds A(i1, i3), the (n1/pr)×(n2/pc) block; B(i1, i3), the
		// (n2/pr)×(n3/pc) block; and C(i1, i3), the (n1/pr)×(n3/pc) block.
		aBlk := matrix.BlockOf(a, pr, pc, i1, i3)
		bBlk := matrix.BlockOf(b, pr, pc, i1, i3)
		r.GrowMemory(float64(aBlk.Size() + bBlk.Size()))

		oRow, oCol := g.FiberOffset(r.ID(), grid.Axis3), g.FiberOffset(r.ID(), grid.Axis1)
		var rowGrp, colGrp collective.Group
		rowGrp.Init(r, rows[oRow:oRow+pc], 1, opts.Collective)
		colGrp.Init(r, cols[oCol:oCol+pr], 2, opts.Collective)

		cBlk := matrix.New(aBlk.Rows(), matrix.PartSize(d.N3, pc, i3))
		r.GrowMemory(float64(cBlk.Size() + aBlk.Rows()*panelW + panelW*cBlk.Cols()))

		aColStart := matrix.PartStart(d.N2, pc, i3) // my A block's global col range
		bRowStart := matrix.PartStart(d.N2, pr, i1)

		// The panel matrices are reused across steps; the packed panels
		// travel in pooled buffers recycled after each unpack.
		aP := matrix.New(aBlk.Rows(), panelW)
		bP := matrix.New(panelW, cBlk.Cols())
		for s := 0; s < steps; s++ {
			k0 := s * panelW // global start of the contracted panel
			// A panel: columns [k0, k0+panelW) live on processor column
			// k0*pc/n2; the owner broadcasts its (n1/pr)×panelW slice
			// within the processor row.
			ownerCol := k0 * pc / d.N2
			var aPanel []float64
			if i3 == ownerCol {
				aPanel = aBlk.View(0, k0-aColStart, aBlk.Rows(), panelW).PackInto(r.GetBuffer(aBlk.Rows() * panelW))
			}
			r.SetPhase(PhaseGatherA)
			aPanel = rowGrp.Bcast(aPanel, ownerCol)
			aP.Unpack(aPanel)
			r.PutBuffer(aPanel)

			// B panel: rows [k0, k0+panelW) live on processor row
			// k0*pr/n2; the owner broadcasts its panelW×(n3/pc) slice
			// within the processor column.
			ownerRow := k0 * pr / d.N2
			var bPanel []float64
			if i1 == ownerRow {
				bPanel = bBlk.View(k0-bRowStart, 0, panelW, bBlk.Cols()).PackInto(r.GetBuffer(panelW * bBlk.Cols()))
			}
			r.SetPhase(PhaseGatherB)
			bPanel = colGrp.Bcast(bPanel, ownerRow)
			bP.Unpack(bPanel)
			r.PutBuffer(bPanel)

			r.SetPhase("")
			localMulAdd(r, cBlk, aP, bP)
		}
		return cBlk.Pack()
	})
}

// summaGrid picks the divisor pair pr×pc = p minimizing the per-rank
// broadcast volume (1−1/pc)·n1n2/pr + (1−1/pr)·n2n3/pc.
func summaGrid(d core.Dims, p int) (pr, pc int) {
	best := math.Inf(1)
	pr, pc = p, 1
	for r := 1; r <= p; r++ {
		if p%r != 0 {
			continue
		}
		c := p / r
		fr, fc := float64(r), float64(c)
		cost := (1-1/fc)*d.SizeA()/fr + (1-1/fr)*d.SizeB()/fc
		if cost < best {
			best, pr, pc = cost, r, c
		}
	}
	return pr, pc
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
