package experiments

import (
	"fmt"

	"repro/internal/algs"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// ModelRobustness compares the same Algorithm 1 execution across the three
// machine models of §2.3/§3.1 — the α-β-γ distributed model (Theorem 3's
// home), BSP (Scquizzato-Silvestri), and LPRAM (Aggarwal-Chandra-Snir) —
// showing that the per-processor volume is the α-β-γ/BSP bound and that
// LPRAM pays the full D (no owned-data deduction), each attained exactly
// with the §5.2 grid. The BSP columns read the traced simulation of each
// run as supersteps (bsp.FromTrace).
func ModelRobustness() (Artifact, error) {
	d := DefaultRectDims
	a := matrix.Random(d.N1, d.N2, 7)
	b := matrix.Random(d.N2, d.N3, 8)
	tb := report.NewTable(
		fmt.Sprintf("Algorithm 1 volumes per processor across machine models, %v", d),
		"P", "grid", "αβγ/BSP bound", "BSP volume", "BSP supersteps", "LPRAM bound (D)", "LPRAM cost",
	)
	ps := []int{3, 36, 512}
	rows, err := Map(len(ps), func(i int) ([]string, error) {
		p := ps[i]
		g, err := grid.CaseGrid(d, p)
		if err != nil {
			return nil, fmt.Errorf("models P=%d: %w", p, err)
		}
		res, err := algs.Alg1(a, b, p, algs.Opts{Config: machine.BandwidthOnly(), Grid: g, Trace: true})
		if err != nil {
			return nil, fmt.Errorf("models P=%d: %w", p, err)
		}
		m := bsp.FromTrace(res.Trace, 1, 0)
		return []string{
			fmt.Sprintf("%d", p),
			g.String(),
			report.Num(core.LowerBound(d, p)),
			report.Num(m.MaxReceivedTotal()),
			fmt.Sprintf("%d", m.Cost().Supersteps),
			report.Num(bsp.LPRAMLowerBound(d, p)),
			report.Num(bsp.LPRAMAlg1Cost(d, g)),
		}, nil
	})
	if err != nil {
		return Artifact{}, err
	}
	for _, row := range rows {
		tb.AddRow(row...)
	}
	note := "\nThe distributed and BSP volumes coincide; LPRAM adds back the owned-data term\n" +
		"(mn+mk+nk)/P because nothing starts in local memory (§2.3).\n"
	return Artifact{
		ID:    "E14-models",
		Title: "Model robustness: αβγ vs BSP vs LPRAM",
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}, nil
}
