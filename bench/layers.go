package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/algs"
	"repro/internal/benchrec"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/hbl"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/service"
)

// meter times repeated calls of one layer function, each repetition in its
// own span under the layer measurements' root span.
type meter struct {
	rec  *recorder
	root int
}

// median runs f(rep) for rep = 0..reps-1, each in a span named name, and
// returns the median repetition time divided by calls, the number of layer
// calls one repetition makes. It is in nanoseconds and keeps its fraction:
// a call can take less than one.
func (m *meter) median(name string, reps, calls int, f func(rep int)) nanos {
	ds := make([]float64, reps)
	for rep := range ds {
		ds[rep] = float64(m.rec.timed(name, m.root, -1, func() { f(rep) }))
	}
	return nanos(median(ds) / float64(calls))
}

// nanos is a per-call time in nanoseconds.
type nanos float64

// layerSet is the per-layer metrics of one traced run, plus the internal
// quantities the Algorithm 1 estimate needs.
type layerSet struct {
	metrics  map[string]float64
	grid     grid.Grid
	alg1Wall nanos // median whole run on alg1Scale
	gatherA  nanos // one All-Gather on an A fiber
	gatherB  nanos // one All-Gather on a B fiber
	reduceC  nanos // one Reduce-Scatter on a C fiber
	mulInto  nanos // one local block product
	optimal  nanos // grid.Optimal at alg1Scale.p
	worldNew nanos // machine.New at alg1Scale.p
	maxProcs int
}

// Layer measurement sizes: repetitions per timing, and the number of P
// values of the plan-cold range the per-point math is timed over.
const (
	layerReps  = 7
	mathPoints = 256
)

// measureLayers times every layer call of the per-layer metrics on the
// inputs of workload w: its own requests and plan where it has them, the
// fixed inputs the README names otherwise, and alg1-scale's shape.
func measureLayers(ctx context.Context, w *workload, inst instance, seed uint64, rec *recorder) (*layerSet, error) {
	m := &meter{rec: rec, root: rec.begin("layers", -1, -1)}
	defer rec.end(m.root)
	ls := &layerSet{metrics: make(map[string]float64), maxProcs: runtime.GOMAXPROCS(0)}
	out := ls.metrics

	if err := measureService(m, inst, seed, out); err != nil {
		return nil, err
	}
	if err := measurePlanMath(ctx, m, w.name, seed, out); err != nil {
		return nil, err
	}
	if err := measureHBL(m, out); err != nil {
		return nil, err
	}
	if err := measureSimulator(m, ls, seed); err != nil {
		return nil, err
	}
	return ls, nil
}

// measureService times decoding the workload's requests, encoding its
// answers, and memo inserts and hits on plan-point keys.
func measureService(m *meter, inst instance, seed uint64, out map[string]float64) error {
	cases, err := inst.codec()
	if err != nil {
		return err
	}
	var codecErr error
	keep := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	out["service.decode_us"] = us(m.median("service.decode", layerReps, len(cases), func(int) {
		for _, c := range cases {
			keep(json.Unmarshal(c.body, c.newReq()))
		}
	}))
	out["service.encode_us"] = us(m.median("service.encode", layerReps, len(cases), func(int) {
		for _, c := range cases {
			keep(encodeJSON(io.Discard, c.answer))
		}
	}))
	if codecErr != nil {
		return codecErr
	}

	mem, _, _ := planOp(seed, 0)
	keys := func(rep int) []string {
		out := make([]string, planPoints)
		for j := range out {
			out[j] = fmt.Sprintf("pp:%d:%d:%d:%g:0:1:0:::%d", planN, planN, planN, mem+float64(rep), planPMin+j)
		}
		return out
	}
	cache := service.NewCache(1 << 16)
	val := func() any { return plan.Point{} }
	fresh := make([][]string, layerReps)
	for rep := range fresh {
		fresh[rep] = keys(rep + 1)
	}
	out["service.memo_insert_us"] = us(m.median("service.memo_insert", layerReps, planPoints, func(rep int) {
		for _, k := range fresh[rep] {
			cache.GetOrCompute(k, val)
		}
	}))
	present := keys(0)
	for _, k := range present {
		cache.GetOrCompute(k, val)
	}
	out["service.memo_lookup_us"] = us(m.median("service.memo_lookup", layerReps, planPoints, func(int) {
		for _, k := range present {
			cache.GetOrCompute(k, val)
		}
	}))
	return nil
}

// planRequestFor is the plan workload w sweeps: api-warm's five-point log2
// plan, plan-cold's 5000-point plan for every other workload.
func planRequestFor(name string, seed uint64) (plan.Request, error) {
	body := []byte(apiCalls[len(apiCalls)-1].body)
	if name != "api-warm" {
		mem, _, _ := planOp(seed, 0)
		body = planBody(mem, false)
	}
	var req service.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return plan.Request{}, err
	}
	return planRequestOf(req.Problems[0]), nil
}

// measurePlanMath times the planner and the per-point math it calls:
// OptimalUnderMemory, the Algorithm 1 model and the Theorem 3 bound, over
// seeded P values of the plan-cold range.
func measurePlanMath(ctx context.Context, m *meter, name string, seed uint64, out map[string]float64) error {
	pr, err := planRequestFor(name, seed)
	if err != nil {
		return err
	}
	var sweepErr error
	out["plan.sweep_ms"] = ms(m.median("plan.sweep", layerReps, 1, func(int) {
		_, err := plan.Planner{}.Sweep(ctx, pr, 256, func([]plan.Point) error { return nil })
		if err != nil {
			sweepErr = err
		}
	}))
	out["plan.summary_us"] = us(m.median("plan.summary", layerReps, 1, func(int) {
		if _, err := plan.Summarize(pr); err != nil {
			sweepErr = err
		}
	}))
	if sweepErr != nil {
		return sweepErr
	}

	rng := rand.New(rand.NewPCG(seed, 0x9017))
	d := core.Square(planN)
	mem, _, _ := planOp(seed, 0)
	// Points where no grid fits the memory take part in the grid search,
	// as they do in a sweep, but have no grid for the model.
	ps := make([]int, mathPoints)
	var grids []grid.Grid
	for j := range ps {
		ps[j] = planPMin + rng.IntN(planPoints)
		if g, ok := grid.OptimalUnderMemory(d, ps[j], mem); ok {
			grids = append(grids, g)
		}
	}
	if len(grids) == 0 {
		return fmt.Errorf("no grid fits %g words at any of %d sampled P", mem, mathPoints)
	}
	out["grid.optimal_under_memory_us"] = us(m.median("grid.optimal_under_memory", layerReps, mathPoints, func(int) {
		for _, p := range ps {
			grid.OptimalUnderMemory(d, p, mem)
		}
	}))
	const modelLoops = 20
	cfg := machine.BandwidthOnly()
	out["model.alg1_time_us"] = us(m.median("model.alg1_time", layerReps, modelLoops*len(grids), func(int) {
		for l := 0; l < modelLoops; l++ {
			for _, g := range grids {
				model.Alg1Time(d, g, cfg, collective.Auto)
			}
		}
	}))
	const boundLoops = 200
	sink := 0.0
	out["core.lower_bound_ns"] = ns(m.median("core.lower_bound", layerReps, boundLoops*mathPoints, func(int) {
		for l := 0; l < boundLoops; l++ {
			for _, p := range ps {
				sink += core.LowerBound(d, p)
			}
		}
	}))
	if sink < 0 {
		return fmt.Errorf("negative lower bound")
	}
	return nil
}

// measureHBL times the HBL LP and the memory-independent bound on the three
// api-warm /v1/bound programs.
func measureHBL(m *meter, out map[string]float64) error {
	var req service.BoundRequest
	if err := json.Unmarshal([]byte(apiCalls[2].body), &req); err != nil {
		return err
	}
	progs := make([]hbl.Program, len(req.Problems))
	for j, bp := range req.Problems {
		p, err := hbl.ParseProgram(bp.Program)
		if err != nil {
			return err
		}
		progs[j] = p
	}
	var hblErr error
	out["hbl.solve_us"] = us(m.median("hbl.solve", layerReps, len(progs), func(int) {
		for _, p := range progs {
			if _, err := hbl.Solve(p); err != nil {
				hblErr = err
			}
		}
	}))
	out["hbl.bound_us"] = us(m.median("hbl.bound", layerReps, len(progs), func(int) {
		for j, p := range progs {
			if _, err := hbl.MemIndependentBound(p, req.Problems[j].P); err != nil {
				hblErr = err
			}
		}
	}))
	return hblErr
}

// measureSimulator times the simulator layers on alg1-scale's shape:
// whole runs and their exact counts, world construction, one
// collective per fiber kind, the local block product, and scheduler
// handoffs at P = 16384.
func measureSimulator(m *meter, ls *layerSet, seed uint64) error {
	out, s := ls.metrics, alg1Scale
	d := s.dims()
	ls.optimal = m.median("grid.optimal", layerReps, 1, func(int) { ls.grid = grid.Optimal(d, s.p) })
	out["grid.optimal_us"] = us(ls.optimal)

	var runErr error
	var stats machine.WorldStats
	const alg1Reps = 3
	ls.alg1Wall = m.median("algs.alg1", alg1Reps, 1, func(rep int) {
		res, err := s.run(mix(seed, uint64(rep)))
		if err != nil {
			runErr = err
			return
		}
		stats = res.Stats
	})
	if runErr != nil {
		return runErr
	}
	out["machine.msgs_per_run"] = float64(stats.TotalMessages)
	out["machine.words_per_run"] = stats.TotalWordsSent
	out["collective.phase_words"] = stats.MaxPhaseRecv(algs.PhaseGatherA)

	ls.worldNew = m.median("machine.world_new", layerReps, 1, func(int) {
		if _, err := machine.New(s.p, machine.BandwidthOnly()); err != nil {
			runErr = err
		}
	})
	out["machine.world_new_ms"] = ms(ls.worldNew)

	g := ls.grid
	var err error
	if ls.gatherA, err = fiberGather(m, g.P3, (s.n/g.P1)*(s.n/g.P2)); err != nil {
		return err
	}
	if ls.gatherB, err = fiberGather(m, g.P1, (s.n/g.P2)*(s.n/g.P3)); err != nil {
		return err
	}
	if ls.reduceC, err = fiberReduce(m, g.P2, (s.n/g.P1)*(s.n/g.P3)); err != nil {
		return err
	}
	out["collective.allgather_us"] = us(ls.gatherA)

	ls.mulInto = blockProduct(m, s.n/g.P1, s.n/g.P2, s.n/g.P3, seed)
	out["matrix.mulinto_ms"] = ms(ls.mulInto)
	out["matrix.kernel_share"] = float64(s.p) * float64(ls.mulInto) / (float64(ls.alg1Wall) * float64(ls.maxProcs))

	const handoffP = 16384
	var handoffs []float64
	for rep := 0; rep < 3; rep++ {
		w, err := machine.New(handoffP, machine.BandwidthOnly())
		if err != nil {
			return err
		}
		body := benchrec.ScalingBody(handoffP, benchrec.ScalingRounds)
		wall := m.rec.timed("machine.handoff", m.root, -1, func() { runErr = w.Run(body) })
		if runErr != nil {
			return runErr
		}
		handoffs = append(handoffs, float64(wall)/float64(w.Stats().TotalMessages))
	}
	out["machine.handoff_ns"] = median(handoffs)
	return runErr
}

// fiberGather times one All-Gather of a packed block of words over a
// fiber of size ranks, split the way Algorithm 1 splits it.
func fiberGather(m *meter, size, words int) (nanos, error) {
	return fiberCollective(m, "collective.allgather", size, words, func(g *collective.Group, counts []int, id int) {
		g.AllGatherVInto(make([]float64, counts[id]), counts, make([]float64, words))
	})
}

// fiberReduce times one Reduce-Scatter of a block of words over a fiber of
// size ranks, split the way Algorithm 1 splits it.
func fiberReduce(m *meter, size, words int) (nanos, error) {
	return fiberCollective(m, "collective.reduce_scatter", size, words, func(g *collective.Group, counts []int, _ int) {
		g.ReduceScatterV(make([]float64, words), counts)
	})
}

// fiberCollective times op run by every rank of a world of size ranks
// that form one group, with words split into size counts.
func fiberCollective(m *meter, name string, size, words int, op func(g *collective.Group, counts []int, id int)) (nanos, error) {
	counts := make([]int, size)
	members := make([]int, size)
	for i := range counts {
		counts[i] = matrix.PartSize(words, size, i)
		members[i] = i
	}
	var runErr error
	d := m.median(name, layerReps, 1, func(int) {
		w, err := machine.New(size, machine.BandwidthOnly())
		if err != nil {
			runErr = err
			return
		}
		err = w.Run(func(r *machine.Rank) {
			var g collective.Group
			g.Init(r, members, 1, collective.Auto)
			op(&g, counts, r.ID())
			g.Release()
		})
		if err != nil {
			runErr = err
		}
	})
	return d, runErr
}

// blockProduct times one local product of the per-rank block shape,
// batching calls so each timed repetition lasts at least a millisecond.
func blockProduct(m *meter, rows, inner, cols int, seed uint64) nanos {
	a := *matrix.Random(rows, inner, mix(seed, 3))
	b := *matrix.Random(inner, cols, mix(seed, 4))
	c := matrix.Wrap(rows, cols, make([]float64, rows*cols))
	start := time.Now()
	matrix.MulIntoVal(c, a, b, 0)
	batch := int(time.Millisecond/max(time.Since(start), time.Microsecond)) + 1
	return m.median("matrix.mulinto", layerReps, batch, func(int) {
		for k := 0; k < batch; k++ {
			matrix.MulIntoVal(c, a, b, 0)
		}
	})
}

// alg1Explained estimates the wall time of one Algorithm 1 run from its
// layers: grid selection and world construction run once; every A and B
// fiber runs one All-Gather, every C fiber one Reduce-Scatter, and every
// rank one block product, spread over GOMAXPROCS cores. The remainder
// (block packing, scheduling across fibers, assembly of C) is what the
// estimate leaves out.
func alg1Explained(ls *layerSet) nanos {
	g, procs := ls.grid, nanos(ls.maxProcs)
	fibersA, fibersB, fibersC := nanos(g.P1*g.P2), nanos(g.P2*g.P3), nanos(g.P1*g.P3)
	return ls.optimal + ls.worldNew +
		(fibersA*ls.gatherA+fibersB*ls.gatherB+fibersC*ls.reduceC)/procs +
		nanos(alg1Scale.p)*ls.mulInto/procs
}
