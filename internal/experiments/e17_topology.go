package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/algs"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/topo"
)

// TopologySweep asks where the paper's model stops describing real
// machines. Theorem 3's bound — and Algorithm 1's matching constant 3 — are
// proved on a fully connected network where every processor pair owns a
// dedicated link. This experiment runs the same Algorithm 1 schedule, same
// §5.2 optimal grid, on simulated hierarchical fabrics (shared-NIC
// clusters, tori, fat and skinny trees) under both rank placements, and
// measures the simulated critical path against two predictions:
//
//   - the flat α-β prediction (Alg1Time) — what the paper promises;
//   - the topology-aware prediction (Alg1TimeTopo), which prices each
//     collective phase at the worst contended route its fibers use.
//
// The sim/flat column is the headline: 1.000 on the flat fabric (the §5.1
// accounting is exact there) and > 1 wherever link sharing stretches the
// critical path — the factor by which the memory-independent constant
// degrades on that fabric. The χ column is the static congestion bound from
// the all-pairs route analysis, and sim/topo shows how much of the gap the
// worst-route model already explains. It honors cancellation between
// cells.
func TopologySweep(ctx context.Context) (Artifact, error) {
	study := fabricStudy{
		what:    "topology sweep",
		heading: "Algorithm 1 on real fabrics",
		n:       64,
		g:       grid.Grid{P1: 4, P2: 4, P3: 4},
		specs:   []string{"flat", "twolevel=8", "torus=4x4x4", "fattree=4x3", "tree=4x3"},
		seed:    91,
	}
	tb, worstGap, err := study.run(ctx)
	if err != nil {
		return Artifact{}, err
	}
	note := fmt.Sprintf("\nThe flat rows reproduce the paper's constant exactly (sim/flat = 1.000).\n"+
		"Every shared-link fabric stretches Algorithm 1's critical path — worst\n"+
		"sim/flat here is %.2f× — so the memory-independent constant 3 is a\n"+
		"property of the dedicated-link model, degraded by exactly the congestion\n"+
		"factor of the fabric's busiest route. Placement moves the gap between\n"+
		"phases (contiguous keeps the Axis3 fibers node-local, round-robin trades\n"+
		"them for Axis1) but cannot remove it.\n", worstGap)
	return Artifact{
		ID:    "E17-topology",
		Title: "Topology sweep: the lower-bound constant under link contention",
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}, nil
}

// fabricStudy is the experiment E17 and E18 share: Algorithm 1 at n³ on
// grid g, on every fabric of specs under both rank placements, at
// DefaultRuntimeConfig with every link costing its (α, β).
type fabricStudy struct {
	what    string // prefix of the study's errors
	heading string // start of the table's title
	n       int
	g       grid.Grid
	specs   []string
	seed    uint64 // A is drawn from seed, B from seed+1
	oracle  bool   // add a column naming the charge oracle (uniform or walk)
}

// run builds the study's table, one row per fabric × placement cell, and
// returns it with the worst sim/flat gap. Each cell parses its fabric,
// builds the network, reads the congestion report and the topology-aware
// prediction, and runs Algorithm 1 and verifies its product. A flat row
// whose simulated time is not exactly the flat prediction fails the study,
// and so does a study in which no fabric congests. It honors cancellation
// between cells.
func (s fabricStudy) run(ctx context.Context) (*report.Table, float64, error) {
	d := core.Square(s.n)
	g, p := s.g, s.g.Size()
	cfg := DefaultRuntimeConfig
	link := topo.Link{Alpha: cfg.Alpha, Beta: cfg.Beta}

	a := matrix.Random(s.n, s.n, s.seed)
	b := matrix.Random(s.n, s.n, s.seed+1)
	want := matrix.Mul(a, b)
	flat := model.Alg1Time(d, g, cfg, collective.Auto).Total()

	cols := []string{"topology", "placement", "max χ", "simulated", "sim/flat", "topo-predicted", "sim/topo"}
	if s.oracle {
		cols = slices.Insert(cols, 2, "oracle")
	}
	tb := report.NewTable(
		fmt.Sprintf("%s: %v, P = %d, grid %v, α=%g β=%g γ=%g (flat prediction %s)",
			s.heading, d, p, g, cfg.Alpha, cfg.Beta, cfg.Gamma, report.Num(flat)),
		cols...,
	)

	worstGap := 1.0
	for _, spec := range s.specs {
		fabric, err := topo.Parse(spec, p, link)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", s.what, err)
		}
		for _, place := range []topo.Policy{topo.Contiguous, topo.RoundRobin} {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			fail := func(err error) (*report.Table, float64, error) {
				return nil, 0, fmt.Errorf("%s %s/%v: %w", s.what, spec, place, err)
			}
			net, err := topo.NewNetwork(fabric, place)
			if err != nil {
				return fail(err)
			}
			congest, err := topo.Congest(g, net)
			if err != nil {
				return fail(err)
			}
			topoPred, err := model.Alg1TimeTopo(d, g, cfg, collective.Auto, net)
			if err != nil {
				return fail(err)
			}
			res, err := algs.Alg1(a, b, p, algs.Opts{Config: cfg, Grid: g, Topo: fabric, Place: place})
			if err != nil {
				return fail(err)
			}
			if res.C.MaxAbsDiff(want) > 1e-8 {
				return fail(errors.New("wrong product"))
			}
			sim := res.Stats.CriticalPath
			gap := sim / flat
			worstGap = max(worstGap, gap)
			row := []string{
				fabric.Name(),
				place.String(),
				fmt.Sprintf("%.2f", congest.MaxChi()),
				report.Num(sim),
				fmt.Sprintf("%.3f", gap),
				report.Num(topoPred.Total()),
				fmt.Sprintf("%.3f", sim/topoPred.Total()),
			}
			if s.oracle {
				mode := "walk"
				if net.Uniform() {
					mode = "uniform"
				}
				row = slices.Insert(row, 2, mode)
			}
			tb.AddRow(row...)
			// Flat must stay exact at any P, either way ranks are placed:
			// each pair keeps a dedicated link, so the §5.1 accounting
			// holds to the last bit and the constant 3 is genuinely
			// attained. A deviation is an engine or oracle bug, not
			// congestion.
			if net.Uniform() && sim != flat {
				return nil, 0, fmt.Errorf("%s: flat simulation %v != prediction %v", s.what, sim, flat)
			}
		}
	}
	if worstGap <= 1 {
		return nil, 0, fmt.Errorf("%s: no fabric showed congestion (worst sim/flat %.3f)", s.what, worstGap)
	}
	return tb, worstGap, nil
}
