// Package parmm is the public API of the reproduction of "Brief
// Announcement: Tight Memory-Independent Parallel Matrix Multiplication
// Communication Lower Bounds" (Al Daas, Ballard, Grigori, Kumar, Rouse,
// SPAA 2022).
//
// It exposes three layers:
//
//   - The lower-bound calculator: Theorem 3's memory-independent bound with
//     tight constants 1/2/3 across the three aspect-ratio regimes, the
//     Lemma 2 optimization machinery behind it, Corollary 4 for square
//     matrices, the prior-work constants of Table 1, and the §6.2
//     memory-dependent interplay.
//   - The simulated distributed machine (§3.1's α-β-γ model) with
//     bandwidth-optimal collectives, and parallel multiplication algorithms
//     on it: the paper's Algorithm 1 plus 1D, SUMMA, Cannon, 2.5D, and
//     All-to-All-3D baselines, all measured in exact word counts.
//   - The experiment suite regenerating every table and figure of the
//     paper.
//
// Quick start:
//
//	d := parmm.NewDims(9600, 2400, 600)
//	words := parmm.LowerBound(d, 512)          // Theorem 3
//	g := parmm.OptimalGrid(d, 512)             // 32x8x2 (§5.2 / Figure 2)
//	res, err := parmm.Alg1(a, b, 512, parmm.Opts{
//	    Config: parmm.BandwidthOnly(), Grid: g,
//	})
//	// res.CommCost() == words, exactly.
package parmm

import (
	"context"

	"repro/internal/algs"
	"repro/internal/caps"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/extension"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/topo"
)

// Dims is the shape of a multiplication: an N1×N2 matrix times an N2×N3
// matrix.
type Dims = core.Dims

// NewDims constructs a Dims.
func NewDims(n1, n2, n3 int) Dims { return core.NewDims(n1, n2, n3) }

// SquareDims returns the shape of an n×n by n×n multiplication.
func SquareDims(n int) Dims { return core.Square(n) }

// Case identifies the Theorem 3 regime (1 = 1D, 2 = 2D, 3 = 3D).
type Case = core.Case

// The three regimes of Theorem 3.
const (
	Case1 = core.Case1
	Case2 = core.Case2
	Case3 = core.Case3
)

// CaseOf returns the regime of (d, p): Case1 for P ≤ m/n, Case2 up to
// mn/k², Case3 beyond.
func CaseOf(d Dims, p int) Case { return core.CaseOf(d, p) }

// Thresholds returns the regime boundaries (m/n, mn/k²).
func Thresholds(d Dims) (float64, float64) { return core.Thresholds(d) }

// LowerBound returns Theorem 3's memory-independent communication lower
// bound in words per processor: D − (mn+mk+nk)/P.
func LowerBound(d Dims, p int) float64 { return core.LowerBound(d, p) }

// DataFootprint returns the paper's D: the minimum total per-processor data
// footprint (the optimum of Lemma 2).
func DataFootprint(d Dims, p int) float64 { return core.D(d, p) }

// LeadingTerm returns the leading term of the bound in the applicable case.
func LeadingTerm(d Dims, p int) float64 { return core.LeadingTerm(d, p) }

// Corollary4 returns the square-matrix bound 3n²/P^{2/3} − 3n²/P.
func Corollary4(n, p int) float64 { return core.Corollary4(n, p) }

// MemoryDependentLowerBound returns the leading term 2mnk/(P·sqrt(M)) of
// the classical memory-dependent bound for per-processor memory M.
func MemoryDependentLowerBound(d Dims, p int, mem float64) float64 {
	return core.MemoryDependentLeading(d, p, mem)
}

// StrongScalingLimit returns the §6.2 crossover P = (8/27)·mnk/M^{3/2}
// beyond which the memory-independent bound binds and perfect strong
// scaling must end.
func StrongScalingLimit(d Dims, mem float64) float64 {
	return core.CrossoverP(d, mem)
}

// Grid is a p1×p2×p3 logical processor grid.
type Grid = grid.Grid

// OptimalGrid returns the integer grid of P processors minimizing the
// eq. (3) communication cost of Algorithm 1 (exhaustive divisor search).
func OptimalGrid(d Dims, p int) Grid { return grid.Optimal(d, p) }

// CaseGrid returns the §5.2 analytic grid when it is integral and divides
// the dimensions (the configuration in which the bound is attained
// word-exactly), or an error.
func CaseGrid(d Dims, p int) (Grid, error) { return grid.CaseGrid(d, p) }

// GridCommCost evaluates eq. (3): Algorithm 1's per-processor communication
// volume on the given grid.
func GridCommCost(d Dims, g Grid) float64 { return grid.CommCost(d, g) }

// Matrix is a dense row-major matrix of float64.
type Matrix = matrix.Dense

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.New(r, c) }

// RandomMatrix returns a deterministic pseudo-random r×c matrix with
// entries in [-1, 1), seeded by seed.
func RandomMatrix(r, c int, seed uint64) *Matrix { return matrix.Random(r, c, seed) }

// Mul returns the sequential product a·b (the verification oracle).
func Mul(a, b *Matrix) *Matrix { return matrix.Mul(a, b) }

// MachineConfig sets the α-β-γ cost parameters of the simulated machine.
type MachineConfig = machine.Config

// BandwidthOnly returns the cost model charging 1 per word and nothing
// else, so costs read directly in words.
func BandwidthOnly() MachineConfig { return machine.BandwidthOnly() }

// Opts configures a simulated algorithm run: fill the fields it needs (see
// internal/algs for their semantics); the zero Opts charges nothing per
// word, so most callers set Config to BandwidthOnly() or an explicit α-β-γ
// model. Opts.Validate reports taxonomy errors (ErrBadOpts,
// ErrGridMismatch) for inconsistent values.
type Opts = algs.Opts

// Result is the outcome of a simulated run: the assembled product, the
// grid, and the machine statistics.
type Result = algs.Result

// Alg1 runs the paper's communication-optimal Algorithm 1 on p simulated
// processors.
func Alg1(a, b *Matrix, p int, opts Opts) (*Result, error) { return algs.Alg1(a, b, p, opts) }

// AllToAll3D runs the Agarwal et al. 1995 All-to-All variant of the 3D
// algorithm.
func AllToAll3D(a, b *Matrix, p int, opts Opts) (*Result, error) {
	return algs.AllToAll3D(a, b, p, opts)
}

// OneD runs the classical block-row algorithm.
func OneD(a, b *Matrix, p int, opts Opts) (*Result, error) { return algs.OneD(a, b, p, opts) }

// SUMMA runs the 2D SUMMA algorithm.
func SUMMA(a, b *Matrix, p int, opts Opts) (*Result, error) { return algs.SUMMA(a, b, p, opts) }

// Cannon runs Cannon's algorithm on a square grid.
func Cannon(a, b *Matrix, p int, opts Opts) (*Result, error) { return algs.Cannon(a, b, p, opts) }

// TwoPointFiveD runs the Solomonik-Demmel 2.5D algorithm.
func TwoPointFiveD(a, b *Matrix, p int, opts Opts) (*Result, error) {
	return algs.TwoPointFiveD(a, b, p, opts)
}

// Experiment is one regenerated table or figure of the paper.
type Experiment = experiments.Artifact

// RunAllExperiments regenerates every table and figure at the default
// (scaled) parameters.
func RunAllExperiments() ([]Experiment, error) { return experiments.All(context.Background()) }

// RunAllExperimentsContext is RunAllExperiments honoring cancellation: ctx
// is checked between experiments and between sweep points inside the
// simulation-heavy ones, so a long run stops promptly when ctx is done and
// returns ctx's error.
func RunAllExperimentsContext(ctx context.Context) ([]Experiment, error) {
	return experiments.All(ctx)
}

// --- Fast (Strassen-like) regime: §2.3 ---

// CAPSResult is the outcome of a parallel Strassen run.
type CAPSResult = caps.Result

// CAPS runs Communication-Avoiding Parallel Strassen on 7^levels simulated
// processors (square matrices, dimensions divisible by 2^levels). Its
// volume follows the fast floor n²/P^{2/log2 7} of Ballard et al. 2012b
// rather than Theorem 3's classical floor.
func CAPS(a, b *Matrix, levels int, cfg MachineConfig) (*CAPSResult, error) {
	return caps.Multiply(a, b, levels, cfg)
}

// FastMatmulLowerBound returns the leading term n²/P^{2/ω0} of the
// memory-independent bound for Strassen-like algorithms with exponent
// omega0 (classical 3 recovers Theorem 3's Case 3 leading term).
func FastMatmulLowerBound(n, p int, omega0 float64) float64 {
	return core.FastMatmulLeading(n, p, omega0)
}

// --- §6.3 extension: d-dimensional cuboid computations ---

// CuboidProblem is a d-dimensional iteration-space computation with one
// array per omitted index (d = 3 is classical matmul).
type CuboidProblem = extension.Problem

// NewCuboidProblem constructs the §6.3 generalized problem.
func NewCuboidProblem(dims ...int) (CuboidProblem, error) { return extension.NewProblem(dims...) }

// CuboidLowerBound returns the generalized memory-independent bound for a
// cuboid problem on p processors.
func CuboidLowerBound(pr CuboidProblem, p int) float64 { return pr.LowerBound(p) }

// --- Runtime model ---

// Prediction decomposes Algorithm 1's predicted execution time.
type Prediction = model.Prediction

// PredictAlg1Time returns the closed-form α-β-γ execution time of
// Algorithm 1 on grid g — equal to the simulated critical path on
// conforming configurations.
func PredictAlg1Time(d Dims, g Grid, cfg MachineConfig) Prediction {
	return model.Alg1Time(d, g, cfg, collective.Auto)
}

// --- Interconnect topologies ---

// Topology is a concrete interconnect fabric the simulated machine can run
// on: flat (the paper's fully connected model, the default), two-level
// shared-NIC clusters, k-ary tori, and fat or skinny trees. Build one with
// ParseTopology and attach it to a run with WithTopology.
type Topology = topo.Topology

// Link is one cable's α-β cost, the base price a topology scales by route
// length and contention.
type Link = topo.Link

// Placement is the policy embedding grid ranks into a fabric's endpoints.
type Placement = topo.Policy

// The placement policies.
const (
	// PlaceContiguous packs consecutive ranks onto the same node (the
	// default).
	PlaceContiguous = topo.Contiguous
	// PlaceRoundRobin deals consecutive ranks across nodes.
	PlaceRoundRobin = topo.RoundRobin
)

// ParseTopology builds the fabric described by spec — "flat",
// "twolevel=<g>", "torus=<d1>x<d2>[x...]", "fattree=<radix>x<levels>", or
// "tree=<radix>x<levels>" — with exactly p endpoints, each cable priced at
// link. Unknown or ill-sized specs wrap ErrBadTopology.
func ParseTopology(spec string, p int, link Link) (Topology, error) {
	return topo.Parse(spec, p, link)
}

// TopologyKinds lists the recognized spec forms, for error messages and
// interfaces.
func TopologyKinds() []string { return topo.Kinds() }

// TopoPrediction is a topology-aware prediction: the flat decomposition
// plus the congestion slowdown the fabric imposes.
type TopoPrediction = model.TopoPrediction

// PredictAlg1TimeOnTopology prices Algorithm 1 on a concrete fabric: each
// collective phase is charged at the worst contended route among its fiber
// pairs. On the flat fabric it collapses exactly to PredictAlg1Time with
// Slowdown 1; elsewhere Slowdown is the factor by which the paper's
// dedicated-link constant degrades.
func PredictAlg1TimeOnTopology(d Dims, g Grid, cfg MachineConfig, t Topology, place Placement) (TopoPrediction, error) {
	if err := g.Validate(); err != nil {
		return TopoPrediction{}, err
	}
	net, err := topo.NewNetwork(t, place)
	if err != nil {
		return TopoPrediction{}, err
	}
	return model.Alg1TimeTopo(d, g, cfg, collective.Auto, net)
}

// CARMA runs the Demmel et al. 2013 recursive algorithm (P must be a power
// of two): asymptotically optimal in all three regimes via greedy halving.
func CARMA(a, b *Matrix, p int, opts Opts) (*Result, error) { return algs.CARMA(a, b, p, opts) }

// Alg1LowMem runs the §6.2 low-memory adaptation of Algorithm 1: panels
// are gathered in the given number of chunks, shrinking the temporary
// footprint at the cost of latency, with bandwidth unchanged.
func Alg1LowMem(a, b *Matrix, p, chunks int, opts Opts) (*Result, error) {
	return algs.Alg1LowMem(a, b, p, chunks, opts)
}
