package experiments

import (
	"context"
	"fmt"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// AlgorithmComparison runs every implemented algorithm on the same square
// n×n problem with P processors and compares measured per-processor
// communication, message counts, peak memory, and the ratio to Theorem 3's
// bound. On a square problem all P > 1 fall in Case 3, so the 3D
// algorithms win and the 1D/2D baselines pay the predicted factors. It
// honors cancellation between algorithms.
func AlgorithmComparison(ctx context.Context, n, p int) (Artifact, error) {
	d := core.Square(n)
	a := matrix.Random(n, n, 17)
	b := matrix.Random(n, n, 18)
	want := matrix.Mul(a, b)
	bound := core.LowerBound(d, p)

	tb := report.NewTable(
		fmt.Sprintf("Algorithms on %v, P = %d (bound = %s words/proc)", d, p, report.Num(bound)),
		"algorithm", "grid", "words/proc", "ratio to bound", "messages/proc", "peak memory", "correct",
	)
	entries := algs.Registry()
	rows, err := MapContext(ctx, len(entries), func(i int) ([]string, error) {
		e := entries[i]
		res, err := e.Run(a, b, p, algs.Opts{Config: machine.BandwidthOnly()})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		ok := res.C.MaxAbsDiff(want) <= 1e-9*float64(n)
		if !ok {
			return nil, fmt.Errorf("%s: wrong product", e.Name)
		}
		maxMsgs := 0
		for _, rs := range res.Stats.Ranks {
			if rs.MsgsRecv > maxMsgs {
				maxMsgs = rs.MsgsRecv
			}
		}
		return []string{
			e.Name,
			res.Grid.String(),
			report.Num(res.CommCost()),
			fmt.Sprintf("%.3f", res.CommCost()/bound),
			fmt.Sprintf("%d", maxMsgs),
			report.Num(res.Stats.MaxPeakMemory),
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
		ID:    "E7-algorithms",
		Title: "Baseline comparison: who attains the bound, who pays more (§2.4 context)",
		Text:  tb.String(),
		CSV:   tb.CSV(),
	}, nil
}

// StrongScaling sweeps P for a fixed rectangular problem, running Algorithm
// 1 with the exhaustively optimal grid at every P (dividing or not) and
// reporting measured communication against the bound — showing the regime
// transitions of Theorem 3 on measured data. It honors cancellation
// between sweep points.
func StrongScaling(ctx context.Context, d core.Dims, ps []int) (Artifact, error) {
	a := matrix.Random(d.N1, d.N2, 23)
	b := matrix.Random(d.N2, d.N3, 29)
	want := matrix.Mul(a, b)
	tb := report.NewTable(
		fmt.Sprintf("Strong scaling of Algorithm 1 on %v", d),
		"P", "case", "grid", "words/proc", "bound", "ratio", "critical path (words)",
	)
	rows, err := MapContext(ctx, len(ps), func(i int) ([]string, error) {
		p := ps[i]
		res, err := algs.Alg1(a, b, p, algs.Opts{Config: machine.BandwidthOnly()})
		if err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
		if res.C.MaxAbsDiff(want) > 1e-9*float64(d.N2) {
			return nil, fmt.Errorf("P=%d: wrong product", p)
		}
		bound := core.LowerBound(d, p)
		ratio := 1.0
		if bound > 0 {
			ratio = res.CommCost() / bound
		}
		return []string{
			fmt.Sprintf("%d", p),
			core.CaseOf(d, p).String(),
			res.Grid.String(),
			report.Num(res.CommCost()),
			report.Num(bound),
			fmt.Sprintf("%.3f", ratio),
			report.Num(res.Stats.CriticalPath),
		}, nil
	})
	if err != nil {
		return Artifact{}, err
	}
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return Artifact{
		ID:    "E7b-strong-scaling",
		Title: "Strong scaling across the three regimes",
		Text:  tb.String(),
		CSV:   tb.CSV(),
	}, nil
}
