package experiments

import (
	"context"
	"fmt"

	"repro/internal/algs"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/report"
)

// RuntimeModel validates the closed-form α-β-γ execution-time model
// against the simulator and derives the strong-scaling consequences the
// lower bounds impose: predicted == simulated on conforming grids, speedup
// saturates, and efficiency decays once P passes the communication-bound
// threshold (γ/3β)³·mnk. It honors cancellation between sweep points.
func RuntimeModel(ctx context.Context, d core.Dims, cfg machine.Config, ps []int) (Artifact, error) {
	a := matrix.Random(d.N1, d.N2, 31)
	b := matrix.Random(d.N2, d.N3, 32)
	serial := model.SerialTime(d, cfg)
	tb := report.NewTable(
		fmt.Sprintf("Runtime model vs simulation for %v (α=%g β=%g γ=%g)", d, cfg.Alpha, cfg.Beta, cfg.Gamma),
		"P", "grid", "predicted", "simulated", "rel err", "speedup", "efficiency", "compute share",
	)
	rows, err := MapContext(ctx, len(ps), func(i int) ([]string, error) {
		p := ps[i]
		g := grid.Optimal(d, p)
		pred := model.Alg1Time(d, g, cfg, collective.Auto)
		res, err := algs.Alg1(a, b, p, algs.Opts{Config: cfg, Grid: g})
		if err != nil {
			return nil, fmt.Errorf("runtime P=%d: %w", p, err)
		}
		sim := res.Stats.CriticalPath
		rel := 0.0
		if sim > 0 {
			rel = (pred.Total() - sim) / sim
		}
		speedup := 1.0
		if pred.Total() > 0 {
			speedup = serial / pred.Total()
		}
		share := 1.0
		if pred.Total() > 0 {
			share = pred.Compute / pred.Total()
		}
		return []string{
			fmt.Sprintf("%d", p),
			g.String(),
			report.Num(pred.Total()),
			report.Num(sim),
			fmt.Sprintf("%+.2e", rel),
			fmt.Sprintf("%.1f", speedup),
			fmt.Sprintf("%.3f", speedup/float64(p)),
			fmt.Sprintf("%.3f", share),
		}, nil
	})
	if err != nil {
		return Artifact{}, err
	}
	for _, row := range rows {
		tb.AddRow(row...)
	}
	note := fmt.Sprintf("\ncommunication-bound threshold P* = (γ/3β)³·mnk = %s\n",
		report.Num(model.CommBoundProcessors(d, cfg)))
	return Artifact{
		ID:    "E12-runtime",
		Title: "Runtime model: predicted vs simulated time, speedup, and the comm-bound regime",
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}, nil
}
