package experiments

import (
	"fmt"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// Figure1 reproduces the structure of the paper's Figure 1: Algorithm 1 on
// a 3×3×3 grid (P = 27) for a square problem, reporting per processor the
// initially owned data, and the words received in each of the three
// collectives (the All-Gather of A over the Axis3 fiber, the All-Gather of
// B over the Axis1 fiber, and the Reduce-Scatter of C over the Axis2
// fiber), verified against the (1 − 1/p)·w collective cost formula and the
// total against Theorem 3.
func Figure1(n, p int) (Artifact, error) {
	d := core.Square(n)
	g, err := grid.CaseGrid(d, p)
	if err != nil {
		return Artifact{}, err
	}
	a := matrix.Random(n, n, 41)
	b := matrix.Random(n, n, 42)
	res, err := algs.Alg1(a, b, p, algs.Opts{Config: machine.BandwidthOnly(), Grid: g})
	if err != nil {
		return Artifact{}, err
	}
	if diff := res.C.MaxAbsDiff(matrix.Mul(a, b)); diff > 1e-9*float64(n) {
		return Artifact{}, fmt.Errorf("figure1: wrong product (max diff %g)", diff)
	}

	blockWords := float64((n / g.P1) * (n / g.P2))
	predicted := (1 - 1.0/float64(g.P3)) * blockWords
	tb := report.NewTable(
		fmt.Sprintf("Algorithm 1 on a %v grid, %v (bandwidth-only cost model)", g, d),
		"rank", "coords", "owned words", "recv A-gather", "recv B-gather", "recv C-reduce", "recv total",
	)
	// Show the paper's highlighted processor (1,3,1) → zero-based (0,2,0)
	// first, then a few others.
	highlight := g.Rank(0, 2, 0)
	order := []int{highlight}
	for r := 0; r < p && len(order) < 5; r++ {
		if r != highlight {
			order = append(order, r)
		}
	}
	for _, r := range order {
		i1, i2, i3 := g.Coords(r)
		rs := res.Stats.Ranks[r]
		tb.AddRow(
			fmt.Sprintf("%d", r),
			fmt.Sprintf("(%d,%d,%d)", i1+1, i2+1, i3+1),
			report.Num(3*blockWords/3), // one third of each of the three blocks
			report.Num(rs.Phase(algs.PhaseGatherA).Recv),
			report.Num(rs.Phase(algs.PhaseGatherB).Recv),
			report.Num(rs.Phase(algs.PhaseReduceC).Recv),
			report.Num(rs.WordsRecv),
		)
	}
	summary := fmt.Sprintf(
		"\nper-collective formula (1-1/p)·w = %s words; measured max total = %s; Theorem 3 bound = %s\n",
		report.Num(predicted), report.Num(res.CommCost()), report.Num(core.LowerBound(d, p)))
	return Artifact{
		ID:    "E4-figure1",
		Title: "Figure 1: data movement of Algorithm 1 on a 3x3x3 grid",
		Text:  tb.String() + summary,
		CSV:   tb.CSV(),
	}, nil
}
