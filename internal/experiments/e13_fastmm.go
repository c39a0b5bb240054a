package experiments

import (
	"fmt"

	"repro/internal/caps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// FastMatmul places the paper in its §2.3 context: memory-independent
// bounds also exist for Strassen-like algorithms (Ballard et al. 2012b),
// with leading term n²/P^{2/ω0} — asymptotic only, since tight constants in
// the fast case remain open (the gap the paper closes classically). The
// artifact tabulates the classical Case 3 bound against the Strassen one
// across P, checks Strassen's recursion on a live product through CAPS
// at two levels (49 ranks), and counts its 7^L·(n/2^L)³ multiplications.
func FastMatmul(n int, ps []int) (Artifact, error) {
	a := matrix.Random(48, 48, 51)
	b := matrix.Random(48, 48, 52)
	res, err := caps.Multiply(a, b, 2, machine.BandwidthOnly())
	if err != nil {
		return Artifact{}, fmt.Errorf("fastmm: %w", err)
	}
	if diff := res.C.MaxAbsDiff(matrix.Mul(a, b)); diff > 1e-8 {
		return Artifact{}, fmt.Errorf("fastmm: CAPS product wrong (max diff %g)", diff)
	}

	tb := report.NewTable(
		fmt.Sprintf("Memory-independent leading terms for %dx%d square multiplication", n, n),
		"P", "classical n²/P^(2/3) (const 3 tight)", "Strassen n²/P^(2/ω0) (const open)", "classical/Strassen",
	)
	for _, p := range ps {
		tb.AddRow(
			fmt.Sprintf("%d", p),
			report.Num(core.FastMatmulLeading(n, p, 3)),
			report.Num(core.FastMatmulLeading(n, p, core.OmegaStrassen)),
			fmt.Sprintf("%.3f", core.ClassicalVsStrassenBoundRatio(p)),
		)
	}
	note := fmt.Sprintf(
		"\nStrassen multiplications for n=%d at depth 4: %s vs classical %s (ratio %.3f)\n",
		n,
		report.Num(matrix.StrassenFlops(n, 4)),
		report.Num(matrix.StrassenFlops(n, 0)),
		matrix.StrassenFlops(n, 4)/matrix.StrassenFlops(n, 0))
	return Artifact{
		ID:    "E13-fastmm",
		Title: "§2.3 context: fast (Strassen-like) memory-independent bounds",
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}, nil
}
