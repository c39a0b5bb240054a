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
	d, err := dimsOf(a, b, p, opts)
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
		aBlk := matrix.BlockView(a, pr, pc, i1, i3)
		bBlk := matrix.BlockView(b, pr, pc, i1, i3)
		r.GrowMemory(float64(aBlk.Size() + bBlk.Size()))

		oRow, oCol := g.FiberOffset(r.ID(), grid.Axis3), g.FiberOffset(r.ID(), grid.Axis1)
		var rowGrp, colGrp collective.Group
		rowGrp.Init(r, rows[oRow:oRow+pc], 1, opts.Collective)
		colGrp.Init(r, cols[oCol:oCol+pr], 2, opts.Collective)

		// C accumulates straight into the chunk the rank returns.
		h, wd := aBlk.Rows(), matrix.PartSize(d.N3, pc, i3)
		myC := make([]float64, h*wd)
		cBlk := matrix.Wrap(h, wd, myC)
		r.GrowMemory(float64(h*wd + h*panelW + panelW*wd))

		for s := 0; s < steps; s++ {
			// Step s's panels are column block s of A and row block s of B
			// when the contracted dimension splits into steps panels. A's
			// lies in the block of processor column s·pc/steps, whose rank
			// packs it from a view value (View's pointer would cost an
			// object a step) and broadcasts it within the processor row;
			// B's lies in the block of processor row s·pr/steps and
			// travels within the processor column. The rank multiplies
			// both pooled panels in place, then recycles them.
			ownerCol := s * pc / steps
			var aPanel []float64
			if i3 == ownerCol {
				src := matrix.BlockView(a, pr, steps, i1, s)
				aPanel = src.PackInto(r.GetBuffer(src.Size()))
			}
			r.SetPhase(PhaseGatherA)
			aPanel = rowGrp.Bcast(aPanel, ownerCol)

			ownerRow := s * pr / steps
			var bPanel []float64
			if i1 == ownerRow {
				src := matrix.BlockView(b, steps, pc, s, i3)
				bPanel = src.PackInto(r.GetBuffer(src.Size()))
			}
			r.SetPhase(PhaseGatherB)
			bPanel = colGrp.Bcast(bPanel, ownerRow)

			r.SetPhase("")
			aP := matrix.Wrap(h, panelW, aPanel)
			bP := matrix.Wrap(panelW, wd, bPanel)
			localMulAdd(r, &cBlk, &aP, &bP)
			r.PutBuffer(aPanel)
			r.PutBuffer(bPanel)
		}
		return myC
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
