// Package plan turns §6.2's limited-memory strong-scaling analysis into a
// sweep: given a problem shape, a per-rank memory budget, and a processor
// range, it computes for every P the cheapest feasible grid, the predicted
// Algorithm 1 time (optionally on a concrete interconnect), and both
// communication lower bounds — the memory-dependent 2mnk/(P√M) leading
// term and Theorem 3's memory-independent bound with its tight constant —
// marking which one binds, where perfect strong scaling must end, and the
// memory-dependent→independent crossover P = (8/27)·mnk/M^{3/2}.
//
// The sweep is embarrassingly parallel and chunked: Planner.Sweep fans
// points out over the experiments worker pool and hands results to an emit
// callback one chunk at a time, so a 10⁵-point range streams in bounded
// memory. The service layer memoizes topology-priced points through
// Planner.PointMemo; the package itself has no cache and no HTTP types.
package plan

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/topo"
)

// Request describes one strong-scaling plan: a problem, a memory budget,
// and the processor counts to evaluate.
type Request struct {
	// Dims is the problem shape (C = A·B with A m×k, B k×n in the paper's
	// terms; N1×N2 times N2×N3 here).
	Dims core.Dims
	// Mem is the local memory per processor in words. Every feasibility
	// check, the memory-dependent bound, and the crossover derive from it.
	Mem float64
	// PMin and PMax bound the processor range, inclusive on both ends.
	PMin, PMax int
	// PStep is the linear stride through [PMin, PMax]; ≤ 0 means 1. It is
	// ignored when Log2 is set.
	PStep int
	// Log2 sweeps geometrically instead: PMin, 2·PMin, 4·PMin, … ≤ PMax.
	Log2 bool
	// Config sets the α-β-γ machine for time predictions. The zero value
	// selects machine.BandwidthOnly(), so points read directly in words.
	Config machine.Config
	// TopoSpec, when non-empty, prices each point on that interconnect
	// (topo.Parse syntax) instead of the paper's fully connected model.
	// Only size-flexible fabrics (flat, twolevel=g) can span a multi-point
	// range; a fixed-size spec is rejected by Validate. Every fabric prices
	// in O(links) per point, so datacenter-scale sweeps — twolevel=64
	// across P up to 2^17 and beyond — stay cheap.
	TopoSpec string
	// Place names the rank placement policy for TopoSpec ("" = contiguous).
	Place string
	// MaxPoints, when positive, caps how many points the range may expand
	// to; Validate rejects larger ranges with ErrBadPlanRange. Servers set
	// it from their admission config.
	MaxPoints int
}

// config returns the effective machine config: the zero value means
// bandwidth-only, the convention the simulator's counting worlds use.
func (r Request) config() machine.Config {
	if r.Config == (machine.Config{}) {
		return machine.BandwidthOnly()
	}
	return r.Config
}

// Points returns how many processor counts the range expands to. It is 0
// when the range is empty (which Validate rejects).
func (r Request) Points() int {
	if r.Log2 {
		n := 0
		for p := r.PMin; p > 0 && p <= r.PMax; {
			n++
			if p > r.PMax/2 {
				break
			}
			p <<= 1
		}
		return n
	}
	if r.PMax < r.PMin {
		return 0
	}
	step := r.PStep
	if step <= 0 {
		step = 1
	}
	return (r.PMax-r.PMin)/step + 1
}

// Validate checks the request against the error taxonomy: ErrBadDims for
// the shape, ErrBadOpts for a negative or non-finite α, β or γ,
// ErrBadPlanRange for the memory budget, processor range, or point budget,
// and ErrBadTopology (or ErrBadPlanRange, for a fixed-size spec asked to
// span several P) for the topology block.
func (r Request) Validate() error {
	if err := r.Dims.Validate(); err != nil {
		return err
	}
	if err := r.Config.Validate(); err != nil {
		return err
	}
	if !(r.Mem > 0) || math.IsInf(r.Mem, 1) {
		return fmt.Errorf("plan: memory per rank must be positive and finite, got %g: %w", r.Mem, core.ErrBadPlanRange)
	}
	if math.IsInf(memoryFloorP(r.Dims, r.Mem), 0) || math.IsInf(core.CrossoverP(r.Dims, r.Mem), 0) {
		return fmt.Errorf("plan: memory per rank %g is so small that the summary's thresholds overflow float64: %w", r.Mem, core.ErrBadPlanRange)
	}
	if r.PMin < 1 || r.PMax < r.PMin {
		return fmt.Errorf("plan: processor range [%d, %d] is empty or inverted: %w", r.PMin, r.PMax, core.ErrBadPlanRange)
	}
	if r.PStep < 0 {
		return fmt.Errorf("plan: negative stride %d: %w", r.PStep, core.ErrBadPlanRange)
	}
	n := r.Points()
	if r.MaxPoints > 0 && n > r.MaxPoints {
		return fmt.Errorf("plan: range expands to %d points, limit %d: %w", n, r.MaxPoints, core.ErrBadPlanRange)
	}
	if r.Place != "" || r.TopoSpec != "" {
		if _, err := topo.ParsePolicy(r.Place); err != nil {
			return err
		}
	}
	if r.TopoSpec != "" {
		cfg := r.config()
		link := topo.Link{Alpha: cfg.Alpha, Beta: cfg.Beta}
		if _, err := topo.Parse(r.TopoSpec, r.PMin, link); err != nil {
			return err
		}
		if n > 1 {
			s := newSweeper(r)
			if _, err := topo.Parse(r.TopoSpec, s.pAt(1), link); err != nil {
				return fmt.Errorf("plan: topology %q is fixed-size and cannot span the processor range: %w",
					r.TopoSpec, core.ErrBadPlanRange)
			}
		}
	}
	return nil
}

// GridRef is the chosen processor grid, serialization-friendly.
type GridRef struct {
	P1 int `json:"p1"`
	P2 int `json:"p2"`
	P3 int `json:"p3"`
}

// Point is the plan for one processor count. Bounds are always present;
// the schedule fields (Grid, costs, time) only when a grid fits in memory.
type Point struct {
	// P is the processor count.
	P int `json:"p"`
	// Case is the Theorem 3 regime (1, 2, or 3) and TightConstant its
	// attainable constant (1, 2, or 3 — the paper's headline result).
	Case          int     `json:"case"`
	TightConstant float64 `json:"tight_constant"`
	// Bound is Theorem 3's memory-independent lower bound (D minus the
	// owned words) and LeadingTerm its dominant term.
	Bound       float64 `json:"bound"`
	LeadingTerm float64 `json:"leading_term"`
	// MemBound is the memory-dependent leading term 2mnk/(P√M).
	MemBound float64 `json:"memory_dependent_bound"`
	// Binding is max(Bound's footprint D, MemBound) — the §6.2 binding
	// bound — and MemoryDependent reports which side won.
	Binding         float64 `json:"binding_bound"`
	MemoryDependent bool    `json:"memory_dependent"`
	// Crossover marks the first swept P where the binding bound switched
	// from memory-dependent to memory-independent — the strong-scaling
	// wall. At most one point of a plan carries it.
	Crossover bool `json:"crossover,omitempty"`
	// Fits reports whether any grid's footprint fits in Mem words; when
	// false the remaining fields are zero (P is left of the memory floor).
	Fits bool `json:"fits"`
	// PerfectScaling marks points inside the perfect-strong-scaling range
	// of Ballard et al. 2012b: P holds a distributed copy of the problem
	// (P ≥ (mn+mk+nk)/M) and the memory-dependent bound — whose total
	// communication P·bound is constant in P, so doubling P can halve the
	// per-processor cost — still binds. It is a property of the bounds:
	// attaining it takes a memory-adaptive algorithm (2.5D-style), not
	// Algorithm 1, whose grids need M ≥ D and therefore always sit past
	// the crossover (Fits ⇒ memory-independent regime).
	PerfectScaling bool `json:"perfect_scaling"`
	// Grid is the cheapest feasible grid; CommCost and MemoryCost its
	// per-processor communication and footprint words.
	Grid       *GridRef `json:"grid,omitempty"`
	CommCost   float64  `json:"comm_cost,omitempty"`
	MemoryCost float64  `json:"memory_cost,omitempty"`
	// Time is the predicted Algorithm 1 execution time on the request's
	// machine (topology-aware when a spec was given), Words its
	// per-processor communication volume, and Speedup/Efficiency the
	// derived strong-scaling measures (zero when γ = 0 makes serial time
	// meaningless).
	Time       float64 `json:"time,omitempty"`
	Words      float64 `json:"words,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// Slowdown is the topology degradation factor (1 on flat; only set
	// when the request named a topology).
	Slowdown float64 `json:"slowdown,omitempty"`
}

// Summary is the range-level analysis: the analytic boundaries that frame
// every point, computed once per plan.
type Summary struct {
	N1     int     `json:"n1"`
	N2     int     `json:"n2"`
	N3     int     `json:"n3"`
	Mem    float64 `json:"mem"`
	PMin   int     `json:"p_min"`
	PMax   int     `json:"p_max"`
	PStep  int     `json:"p_step,omitempty"`
	Log2   bool    `json:"log2,omitempty"`
	Points int     `json:"points"`
	// CaseBoundaries are the P thresholds where Theorem 3 switches regime:
	// case 1→2 at m/n and 2→3 at mn/k² (sorted dims).
	CaseBoundaries [2]float64 `json:"case_boundaries"`
	// MemoryFloorP is the smallest P whose 1/P share of inputs and output
	// fits in Mem: ⌈(mn+mk+nk)/M⌉. Below it no one-copy algorithm runs.
	MemoryFloorP float64 `json:"memory_floor_p"`
	// CrossoverP is the §6.2 threshold (8/27)·mnk/M^{3/2}
	// (core.CrossoverP). It is where the memory-dependent
	// bound meets Case 3's memory-independent one, so it places the switch
	// only when that happens in Case 3; when memory-dependence ends in
	// Case 1 or 2 the switch lies elsewhere, and ObservedCrossoverP is the
	// one that holds in every case.
	CrossoverP       float64 `json:"crossover_p"`
	CrossoverInRange bool    `json:"crossover_in_range"`
	// ObservedCrossoverP is the first swept P whose binding bound is
	// memory-independent while its predecessor's was memory-dependent
	// (0 when the sweep never witnesses the switch). It is the P whose
	// Point carries the Crossover flag.
	ObservedCrossoverP int    `json:"observed_crossover_p,omitempty"`
	Topology           string `json:"topology,omitempty"`
	Placement          string `json:"placement,omitempty"`
}

// Planner computes plans. The zero value works; PointMemo optionally puts
// a cache in front of the points worth caching.
type Planner struct {
	// PointMemo, when non-nil, wraps the computation of every point of a
	// request with a TopoSpec, and of no other: pricing a fabric costs
	// 0.3–130 ms per point at P ≈ 64000, a closed-form point a few
	// microseconds, less than a cache round trip. key uniquely identifies
	// the point (problem, memory, machine, topology, and P —
	// range-independent, so a point cached from one sweep is valid in any
	// other), and compute is the miss path. Implementations typically
	// collapse concurrent identical computations (singleflight).
	PointMemo func(key string, compute func() (Point, error)) (Point, error)
}

// sweeper is a validated request plus everything derived from it once.
type sweeper struct {
	req    Request
	cfg    machine.Config
	step   int
	policy topo.Policy
	serial float64
	prefix string
	// switchP is the summary's ObservedCrossoverP, the one P whose point
	// carries the Crossover flag.
	switchP int
}

func newSweeper(r Request) *sweeper {
	s := &sweeper{req: r, cfg: r.config(), step: r.PStep}
	if s.step <= 0 {
		s.step = 1
	}
	// Validate vetted the policy name; the zero value is Contiguous anyway.
	s.policy, _ = topo.ParsePolicy(r.Place)
	s.serial = model.SerialTime(r.Dims, s.cfg)
	s.prefix = fmt.Sprintf("%d:%d:%d:%g:%g:%g:%g:%s:%s:",
		r.Dims.N1, r.Dims.N2, r.Dims.N3, r.Mem,
		s.cfg.Alpha, s.cfg.Beta, s.cfg.Gamma, r.TopoSpec, r.Place)
	return s
}

// pAt maps a point index to its processor count.
func (s *sweeper) pAt(i int) int {
	if s.req.Log2 {
		return s.req.PMin << i
	}
	return s.req.PMin + i*s.step
}

// summary computes the range-level analysis. The observed crossover takes
// a bisection: in every case md·P is constant and D·P strictly increases
// with P, so the memory-dependent bound binds on a prefix of any sweep,
// and the first point past it is the switch. Were rounding ever to break
// that order at a near tie, the bisection would still end on a
// memory-independent point whose predecessor is memory-dependent.
func (s *sweeper) summary() Summary {
	d, mem := s.req.Dims, s.req.Mem
	one, two := core.Thresholds(d)
	sum := Summary{
		N1: d.N1, N2: d.N2, N3: d.N3,
		Mem:  mem,
		PMin: s.req.PMin, PMax: s.req.PMax, Log2: s.req.Log2,
		Points:         s.req.Points(),
		CaseBoundaries: [2]float64{one, two},
		MemoryFloorP:   memoryFloorP(d, mem),
		CrossoverP:     core.CrossoverP(d, mem),
		Topology:       s.req.TopoSpec,
	}
	if !s.req.Log2 {
		sum.PStep = s.step
	}
	if s.req.TopoSpec != "" {
		sum.Placement = s.policy.String()
	}
	sum.CrossoverInRange = sum.CrossoverP > float64(s.req.PMin) && sum.CrossoverP <= float64(s.req.PMax)
	n := sum.Points
	i := sort.Search(n, func(i int) bool {
		_, md := core.BindingBound(d, s.pAt(i), mem)
		return !md
	})
	if i > 0 && i < n {
		sum.ObservedCrossoverP = s.pAt(i)
	}
	return sum
}

// memoryFloorP is the smallest P whose 1/P share of inputs and output fits
// in mem words: ⌈(mn+mk+nk)/M⌉.
func memoryFloorP(d core.Dims, mem float64) float64 {
	return math.Ceil(d.InputOutputWords() / mem)
}

// compute builds the range-independent part of point P: everything except
// the Crossover flag, which depends on where the swept range switches.
// One Lemma 2 solution gives the case, Theorem 3's bound, its leading term
// and the footprint D the binding bound compares.
func (s *sweeper) compute(p int) (Point, error) {
	d, mem := s.req.Dims, s.req.Mem
	sol := core.Lemma2Closed(d, p)
	pt := Point{
		P:             p,
		Case:          int(sol.Case),
		TightConstant: core.TightConstant(sol.Case),
		Bound:         sol.Bound(d, p),
		LeadingTerm:   sol.X1,
		MemBound:      core.MemoryDependentLeading(d, p, mem),
	}
	pt.Binding, pt.MemoryDependent = core.Binding(sol.Sum(), pt.MemBound)
	pt.PerfectScaling = pt.MemoryDependent && core.MinLocalMemory(d, p) <= mem
	g, ok := grid.OptimalUnderMemory(d, p, mem)
	pt.Fits = ok
	if !ok {
		return pt, nil
	}
	pt.Grid = &GridRef{g.P1, g.P2, g.P3}
	pt.CommCost = grid.CommCost(d, g)
	pt.MemoryCost = grid.MemoryCost(d, g)
	if s.req.TopoSpec != "" {
		fabric, err := topo.Parse(s.req.TopoSpec, p, topo.Link{Alpha: s.cfg.Alpha, Beta: s.cfg.Beta})
		if err != nil {
			return Point{}, err
		}
		pl, err := topo.Map(g, fabric, s.policy)
		if err != nil {
			return Point{}, err
		}
		net, err := topo.NewNetwork(fabric, pl)
		if err != nil {
			return Point{}, err
		}
		pred, err := model.Alg1TimeTopo(d, g, s.cfg, collective.Auto, net)
		if err != nil {
			return Point{}, err
		}
		pt.Time = pred.Total()
		pt.Words = pred.Words
		pt.Slowdown = pred.Slowdown
	} else {
		pred := model.Alg1Time(d, g, s.cfg, collective.Auto)
		pt.Time = pred.Total()
		pt.Words = pred.Words
	}
	if pt.Time > 0 && s.serial > 0 {
		pt.Speedup = s.serial / pt.Time
		pt.Efficiency = pt.Speedup / float64(p)
	}
	for _, v := range [...]float64{pt.Time, pt.Words, pt.Speedup, pt.Efficiency, pt.Slowdown} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return Point{}, fmt.Errorf("plan: the P=%d prediction overflows float64 (α=%g, β=%g, γ=%g): %w",
				p, s.cfg.Alpha, s.cfg.Beta, s.cfg.Gamma, core.ErrBadOpts)
		}
	}
	return pt, nil
}

// at computes point i: the memoizable body plus the range-dependent
// Crossover flag (set after memo retrieval so cached points stay valid
// across ranges with different strides).
func (s *sweeper) at(pl Planner, i int) (Point, error) {
	p := s.pAt(i)
	var pt Point
	var err error
	if pl.PointMemo != nil && s.req.TopoSpec != "" {
		pt, err = pl.PointMemo(s.prefix+strconv.Itoa(p), func() (Point, error) { return s.compute(p) })
	} else {
		pt, err = s.compute(p)
	}
	if err != nil {
		return Point{}, err
	}
	pt.Crossover = p == s.switchP
	return pt, nil
}

// Sweep validates req, then evaluates its points across the experiments
// worker pool in chunks of chunk (≤ 0 selects 256), calling emit with each
// completed chunk in index order before the next chunk starts — the
// bounded-memory contract that lets a server stream a 10⁵-point range.
// The returned Summary is computed up front and is valid even when the
// sweep is later cancelled. Cancellation of ctx stops workers from
// claiming new points and returns ctx's error; a point error aborts with
// the lowest failing index's error; an emit error aborts with that error.
func (pl Planner) Sweep(ctx context.Context, req Request, chunk int, emit func([]Point) error) (Summary, error) {
	if err := req.Validate(); err != nil {
		return Summary{}, err
	}
	s := newSweeper(req)
	sum := s.summary()
	s.switchP = sum.ObservedCrossoverP
	if chunk <= 0 {
		chunk = 256
	}
	for start := 0; start < sum.Points; start += chunk {
		n := min(chunk, sum.Points-start)
		out, err := experiments.MapContext(ctx, n, func(j int) (Point, error) { return s.at(pl, start+j) })
		if err != nil {
			return sum, err
		}
		if err := emit(out); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// Run evaluates the whole plan in memory and returns every point. Large
// ranges should prefer Sweep with an emit callback.
func (pl Planner) Run(ctx context.Context, req Request) (Summary, []Point, error) {
	var pts []Point
	sum, err := pl.Sweep(ctx, req, 0, func(chunk []Point) error {
		pts = append(pts, chunk...)
		return nil
	})
	if err != nil {
		return sum, nil, err
	}
	return sum, pts, nil
}

// Run evaluates req with a zero Planner (no memo).
func Run(ctx context.Context, req Request) (Summary, []Point, error) {
	return Planner{}.Run(ctx, req)
}

// Summarize validates req and returns only its range-level analysis.
func Summarize(req Request) (Summary, error) {
	if err := req.Validate(); err != nil {
		return Summary{}, err
	}
	return newSweeper(req).summary(), nil
}
