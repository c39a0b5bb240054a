package experiments

import (
	"fmt"

	"repro/internal/caps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// CAPSExperiment demonstrates the §2.3 fast-matmul regime executably:
// Communication-Avoiding Parallel Strassen on P = 7^K simulated processors
// moves Θ(n²/P^{2/ω0}) words — below the classical Theorem 3 floor, which
// applies only to classical (O(n³)) algorithms — with measured volumes
// equal to the schedule's counting twin word-for-word and the product
// verified against a classical serial reference.
func CAPSExperiment(n int) (Artifact, error) {
	a := matrix.Random(n, n, 61)
	b := matrix.Random(n, n, 62)
	want := matrix.Mul(a, b)
	tb := report.NewTable(
		fmt.Sprintf("CAPS (parallel Strassen) vs classical bounds, %dx%d", n, n),
		"P", "levels", "measured words/proc", "counting twin", "fast term n²/P^(2/ω0)", "classical bound 3(n³/P)^(2/3)", "flops vs n³",
	)
	p := 1
	for levels := 0; levels <= 2; levels++ {
		res, err := caps.Multiply(a, b, levels, machine.BandwidthOnly())
		if err != nil {
			return Artifact{}, fmt.Errorf("caps levels=%d: %w", levels, err)
		}
		if diff := res.C.MaxAbsDiff(want); diff > 1e-8*float64(n) {
			return Artifact{}, fmt.Errorf("caps levels=%d: wrong product (max diff %g)", levels, diff)
		}
		pred := caps.PredictedVolumes(n, levels)
		maxPred := 0.0
		for _, v := range pred {
			if v > maxPred {
				maxPred = v
			}
		}
		mults := 0.0
		for _, rs := range res.Stats.Ranks {
			mults += rs.Flops
		}
		classical := 3 * core.LeadingTerm(core.Square(n), p)
		if p == 1 {
			classical = 0
		}
		tb.AddRow(
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", levels),
			report.Num(res.CommCost()),
			report.Num(maxPred),
			report.Num(core.FastMatmulLeading(n, p, core.OmegaStrassen)),
			report.Num(classical),
			fmt.Sprintf("%.3f", mults/(float64(n)*float64(n)*float64(n))),
		)
		p *= 7
	}
	note := "\nThe fast floor decays as P^(-0.712) vs the classical P^(-2/3); CAPS is a\n" +
		"Strassen-like algorithm, so Theorem 3 (which counts classical multiplications)\n" +
		"does not apply to it — exactly the §2.3 distinction. The 'flops vs n³' column\n" +
		"shows the (7/8)^levels-per-level multiplication saving (plus the O(n²)\n" +
		"combination additions) that moves the floor.\n"
	return Artifact{
		ID:    "E15-caps",
		Title: "§2.3 executably: parallel Strassen under the fast memory-independent bound",
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}, nil
}
