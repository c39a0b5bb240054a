package experiments

import (
	"context"
	"fmt"

	"repro/internal/algs"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/topo"
)

// fabricScaleCase pins the grid and fabric specs for one supported P. The
// grids are chosen to divide n = 256 evenly so every rank holds equal
// blocks, and the specs mirror internal/topo's benchFabrics, the fabrics
// its charge-oracle benchmarks measure.
type fabricScaleCase struct {
	g     grid.Grid
	specs []string
}

var fabricScaleCases = map[int]fabricScaleCase{
	4096:  {grid.Grid{P1: 16, P2: 16, P3: 16}, []string{"flat", "twolevel=64", "torus=16x16x16", "fattree=4x6"}},
	65536: {grid.Grid{P1: 64, P2: 32, P3: 32}, []string{"flat", "twolevel=64", "torus=16x16x16x16", "fattree=4x8"}},
}

// FabricScale is E17's question asked at datacenter scale: what does
// link contention do to the paper's memory-independent constant when P is
// 65536 rather than 64? The run only became possible in this form — the
// event engine schedules the ranks (PR 6) and the charge oracle prices
// every message from closed-form link loads in O(hops) time and O(links)
// memory rather than P² tables, so a 65536-endpoint torus costs
// milliseconds to build instead of tens of gigabytes.
//
// Each fabric × placement cell runs the full Algorithm 1 schedule at
// n = 256 on the event engine, verifies the product, and reports the
// simulated critical path against the flat α-β prediction (sim/flat, the
// degradation of the constant 3) and the topology-aware prediction
// (sim/topo, how much the worst-route model explains). Supported P values
// are the keys of fabricScaleCases (4096 and 65536).
func FabricScale(ctx context.Context, p int) (Artifact, error) {
	fc, ok := fabricScaleCases[p]
	if !ok {
		return Artifact{}, fmt.Errorf("fabric scale: unsupported P=%d (have 4096, 65536)", p)
	}
	const n = 256
	d := core.Square(n)
	g := fc.g
	cfg := DefaultRuntimeConfig
	link := topo.Link{Alpha: cfg.Alpha, Beta: cfg.Beta}

	a := matrix.Random(n, n, 181)
	b := matrix.Random(n, n, 182)
	want := matrix.Mul(a, b)
	flatPred := model.Alg1Time(d, g, cfg, collective.Auto)

	tb := report.NewTable(
		fmt.Sprintf("Algorithm 1 on datacenter fabrics (event engine): %v, P = %d, grid %v, α=%g β=%g γ=%g (flat prediction %s)",
			d, p, g, cfg.Alpha, cfg.Beta, cfg.Gamma, report.Num(flatPred.Total())),
		"topology", "placement", "oracle", "max χ", "simulated", "sim/flat", "topo-predicted", "sim/topo",
	)

	worstGap := 1.0
	for _, spec := range fc.specs {
		fabric, err := topo.Parse(spec, p, link)
		if err != nil {
			return Artifact{}, fmt.Errorf("fabric scale: %w", err)
		}
		for _, place := range []topo.Policy{topo.Contiguous, topo.RoundRobin} {
			if err := ctx.Err(); err != nil {
				return Artifact{}, err
			}
			pl, err := topo.Map(g, fabric, place)
			if err != nil {
				return Artifact{}, fmt.Errorf("fabric scale %s/%v: %w", spec, place, err)
			}
			net, err := topo.NewNetwork(fabric, pl)
			if err != nil {
				return Artifact{}, fmt.Errorf("fabric scale %s/%v: %w", spec, place, err)
			}
			mode := "walk"
			if net.Uniform() {
				mode = "uniform"
			}
			congest, err := topo.Congest(g, fabric, pl)
			if err != nil {
				return Artifact{}, fmt.Errorf("fabric scale %s/%v: %w", spec, place, err)
			}
			topoPred, err := model.Alg1TimeTopo(d, g, cfg, collective.Auto, net)
			if err != nil {
				return Artifact{}, fmt.Errorf("fabric scale %s/%v: %w", spec, place, err)
			}
			res, err := algs.Alg1(a, b, p, algs.Opts{
				Config: cfg, Grid: g, Topo: fabric, Place: place,
			})
			if err != nil {
				return Artifact{}, fmt.Errorf("fabric scale %s/%v: %w", spec, place, err)
			}
			if res.C.MaxAbsDiff(want) > 1e-8 {
				return Artifact{}, fmt.Errorf("fabric scale %s/%v: wrong product", spec, place)
			}
			sim := res.Stats.CriticalPath
			gap := sim / flatPred.Total()
			if gap > worstGap {
				worstGap = gap
			}
			tb.AddRow(
				fabric.Name(),
				place.String(),
				mode,
				fmt.Sprintf("%.2f", congest.MaxChi()),
				report.Num(sim),
				fmt.Sprintf("%.3f", gap),
				report.Num(topoPred.Total()),
				fmt.Sprintf("%.3f", sim/topoPred.Total()),
			)
			// The flat rows anchor the experiment: dedicated links keep the
			// §5.1 accounting exact at any P, so any deviation here is an
			// engine or oracle bug, not congestion.
			if fabric.NodeSize() == 1 && sim != flatPred.Total() {
				return Artifact{}, fmt.Errorf("fabric scale: flat simulation %v != prediction %v", sim, flatPred.Total())
			}
		}
	}
	if worstGap <= 1 {
		return Artifact{}, fmt.Errorf("fabric scale: no fabric showed congestion (worst sim/flat %.3f)", worstGap)
	}

	note := fmt.Sprintf("\nAt P = %d every message is priced by the walk-mode charge oracle —\n"+
		"closed-form link loads, O(hops) per charge, no P² tables — so the whole\n"+
		"study fits in memory that the old all-pairs oracle would have spent on a\n"+
		"single fabric's table row. The worst sim/flat gap here is %.2f×: the\n"+
		"paper's constant 3 is attained on dedicated links at any scale (the flat\n"+
		"rows), while shared fabrics degrade it by their busiest route's\n"+
		"congestion factor, exactly as the χ column predicts.\n", p, worstGap)
	return Artifact{
		ID:    "E18-fabric-scale",
		Title: fmt.Sprintf("Fabric studies at P = %d: contention at datacenter scale", p),
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}, nil
}
