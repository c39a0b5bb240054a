package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// TightnessPoints lists the (P) values of the tightness sweep on the scaled
// Figure 2 shape; each admits an exact §5.2 grid that divides the
// dimensions and fiber shares evenly, so attainment is word-exact.
var TightnessPoints = []int{1, 2, 3, 4, 16, 36, 64, 512}

// Tightness runs the §5.2 tightness experiment in simulation: Algorithm 1
// with the case-optimal grid on the scaled Figure 2 shape, at P values
// covering all three cases. For each P it reports the measured per-rank
// communication, the eq. (3) prediction, and Theorem 3's bound — all three
// agree to the word — plus the product-correctness check. It honors
// cancellation between sweep points.
func Tightness(ctx context.Context) (Artifact, error) {
	d := DefaultRectDims
	a := matrix.Random(d.N1, d.N2, 7)
	b := matrix.Random(d.N2, d.N3, 8)
	want := matrix.Mul(a, b)

	tb := report.NewTable(
		fmt.Sprintf("Algorithm 1 vs Theorem 3 on %v (words per processor)", d),
		"P", "case", "grid", "measured", "eq.(3)", "Theorem 3 bound", "measured/bound", "correct",
	)
	rows, err := MapContext(ctx, len(TightnessPoints), func(i int) ([]string, error) {
		p := TightnessPoints[i]
		g, err := grid.CaseGrid(d, p)
		if err != nil {
			return nil, fmt.Errorf("tightness P=%d: %w", p, err)
		}
		res, err := algs.Alg1(a, b, p, algs.Opts{Config: machine.BandwidthOnly(), Grid: g})
		if err != nil {
			return nil, fmt.Errorf("tightness P=%d: %w", p, err)
		}
		bound := core.LowerBound(d, p)
		ratio := 1.0
		if bound > 0 {
			ratio = res.CommCost() / bound
		}
		ok := res.C.MaxAbsDiff(want) <= 1e-9*float64(d.N2)
		if !ok {
			return nil, fmt.Errorf("tightness P=%d: wrong product", p)
		}
		if bound > 0 && math.Abs(res.CommCost()-bound) > 1e-9*(1+bound) {
			return nil, fmt.Errorf("tightness P=%d: measured %v != bound %v", p, res.CommCost(), bound)
		}
		return []string{
			fmt.Sprintf("%d", p),
			core.CaseOf(d, p).String(),
			g.String(),
			report.Num(res.CommCost()),
			report.Num(grid.CommCost(d, g)),
			report.Num(bound),
			fmt.Sprintf("%.6f", ratio),
			fmt.Sprintf("%v", ok),
		}, nil
	})
	if err != nil {
		return Artifact{}, err
	}
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return Artifact{
		ID:    "E6-tightness",
		Title: "§5.2: Algorithm 1 attains the lower bound exactly in all three cases",
		Text:  tb.String(),
		CSV:   tb.CSV(),
	}, nil
}
