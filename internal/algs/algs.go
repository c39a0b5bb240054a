// Package algs implements parallel matrix multiplication algorithms on the
// simulated α-β-γ machine:
//
//   - Alg1 — the paper's §5 communication-optimal algorithm: All-Gather the
//     A and B panels over grid fibers, multiply locally, Reduce-Scatter the
//     C contributions. With the §5.2 grid it attains Theorem 3's bound
//     exactly.
//   - AllToAll3D — the Agarwal et al. 1995 original that Alg1 refines,
//     using an All-to-All plus local summation instead of the
//     Reduce-Scatter (same bandwidth, more messages).
//   - OneD — the classical block-row algorithm (gather all of B).
//   - SUMMA — the 2D stationary-C panel-broadcast algorithm of van de Geijn
//     and Watts, the workhorse of ScaLAPACK-style libraries.
//   - Cannon — Cannon's 2D shift algorithm on square grids.
//   - TwoPointFiveD — the Solomonik-Demmel 2.5D algorithm with c replicated
//     layers, trading memory for communication.
//
// Every algorithm starts from a one-copy distribution of the inputs, ends
// with a one-copy distribution of the output (as Theorem 3 assumes), runs
// entirely through the simulated network, and returns the assembled product
// along with the machine statistics, so tests can verify numerical
// correctness against a serial product and experiments can compare measured
// communication against the bounds.
package algs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// Opts configures a simulated run.
type Opts struct {
	// Config is the machine cost model; the zero value charges nothing, so
	// most callers want machine.BandwidthOnly() or an explicit α-β-γ.
	Config machine.Config
	// Grid fixes the processor grid for the 3D algorithms (Alg1,
	// AllToAll3D). The zero value selects grid.Optimal.
	Grid grid.Grid
	// Collective selects the collective implementation family.
	Collective collective.Algorithm
	// Layers is the replication factor c for TwoPointFiveD; 0 picks the
	// largest c ≤ cbrt(P) with c | q where q = sqrt(P/c).
	Layers int
	// Workers bounds local matmul parallelism inside each simulated rank;
	// 0 uses a single goroutine per rank (recommended: ranks are already
	// concurrent).
	Workers int
	// Trace enables event tracing; the recorded timeline is returned in
	// Result.Trace.
	Trace bool
	// Traffic enables per-pair traffic accounting; the matrix is returned
	// in Result.Traffic.
	Traffic bool
	// Topo, when non-nil, prices every message through an interconnect
	// topology (see internal/topo) instead of the uniform α/β of Config;
	// its endpoint count must equal the run's processor count. The Flat
	// topology reproduces the uniform model bit-for-bit.
	Topo topo.Topology
	// Place selects how ranks are embedded onto Topo's endpoints; the zero
	// value is contiguous. Ignored when Topo is nil.
	Place topo.Policy
}

// Validate reports whether the options are self-consistent, before any
// algorithm-specific requirements: worker and layer counts must be
// non-negative, the collective family must be a known value, and a non-zero
// grid must have positive extents. Failures wrap core.ErrBadOpts (or
// core.ErrGridMismatch for the grid), so callers can dispatch with
// errors.Is.
func (o Opts) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("algs: negative Workers %d: %w", o.Workers, core.ErrBadOpts)
	}
	if o.Layers < 0 {
		return fmt.Errorf("algs: negative Layers %d: %w", o.Layers, core.ErrBadOpts)
	}
	switch o.Collective {
	case collective.Auto, collective.Ring, collective.Recursive:
	default:
		return fmt.Errorf("algs: unknown collective family %d: %w", o.Collective, core.ErrBadOpts)
	}
	switch o.Place {
	case topo.Contiguous, topo.RoundRobin:
	default:
		return fmt.Errorf("algs: unknown placement policy %d: %w", int(o.Place), core.ErrBadTopology)
	}
	if o.Grid != (grid.Grid{}) {
		return o.Grid.Validate()
	}
	return nil
}

// newWorld builds the simulated machine for a run, honoring the tracing
// and topology options. With a topology set, ranks are placed onto its
// endpoints and every send is priced through the resulting Network; a
// topology whose endpoint count differs from p wraps core.ErrBadTopology.
func newWorld(p int, opts Opts) (*machine.World, *machine.Trace, error) {
	w, err := machine.New(p, opts.Config)
	if err != nil {
		return nil, nil, err
	}
	if opts.Topo != nil {
		if opts.Topo.P() != p {
			return nil, nil, fmt.Errorf("algs: topology %s has %d endpoints, run uses %d processors: %w",
				opts.Topo.Name(), opts.Topo.P(), p, core.ErrBadTopology)
		}
		pl, err := topo.PlaceRanks(p, opts.Topo, opts.Place)
		if err != nil {
			return nil, nil, err
		}
		net, err := topo.NewNetwork(opts.Topo, pl)
		if err != nil {
			return nil, nil, err
		}
		w.SetNetwork(net)
	}
	var tr *machine.Trace
	if opts.Trace {
		tr = w.EnableTracing()
	}
	return w, tr, nil
}

// Result is the outcome of a simulated parallel multiplication.
type Result struct {
	// Name of the algorithm that produced the result.
	Name string
	// C is the assembled n1×n3 product.
	C *matrix.Dense
	// Grid is the processor grid used (zero for non-grid algorithms).
	Grid grid.Grid
	// Stats are the machine statistics of the run.
	Stats machine.WorldStats
	// Trace holds the event timeline when Opts.Trace was set, else nil.
	Trace *machine.Trace
	// Traffic holds the per-pair traffic matrix when Opts.Traffic was
	// set, else nil.
	Traffic *machine.TrafficMatrix
}

// CommCost returns the per-processor communication volume of the run (max
// words received by any rank), the quantity Theorem 3 bounds.
func (r *Result) CommCost() float64 { return r.Stats.CommCost() }

// dimsOf derives the problem shape from the input matrices.
func dimsOf(a, b *matrix.Dense) (core.Dims, error) {
	if a.Cols() != b.Rows() {
		return core.Dims{}, fmt.Errorf("algs: inner dimensions %d and %d disagree: %w", a.Cols(), b.Rows(), core.ErrBadDims)
	}
	return core.NewDims(a.Rows(), a.Cols(), b.Cols()), nil
}

// localMul multiplies a and b on rank r, charging the scalar-multiplication
// count to the simulated clock.
func localMul(r *machine.Rank, a, b *matrix.Dense, workers int) *matrix.Dense {
	r.Compute(float64(a.Rows()) * float64(a.Cols()) * float64(b.Cols()))
	if workers > 1 {
		return matrix.MulParallel(a, b, workers)
	}
	return matrix.Mul(a, b)
}

// localMulAdd is localMul accumulating into c.
func localMulAdd(r *machine.Rank, c, a, b *matrix.Dense, workers int) {
	r.Compute(float64(a.Rows()) * float64(a.Cols()) * float64(b.Cols()))
	if workers > 1 {
		matrix.MulAddParallel(c, a, b, workers)
		return
	}
	matrix.MulAdd(c, a, b)
}

// localMulAddVal is localMulAdd on matrix values (wrapped pooled buffers),
// keeping the headers off the heap on the sequential path.
func localMulAddVal(r *machine.Rank, c, a, b matrix.Dense, workers int) {
	r.Compute(float64(a.Rows()) * float64(a.Cols()) * float64(b.Cols()))
	matrix.MulAddVal(c, a, b, workers)
}

// localMulIntoVal computes c = a·b on rank r, reusing (and zeroing) c's
// storage, for call sites that overwrite rather than accumulate.
func localMulIntoVal(r *machine.Rank, c, a, b matrix.Dense, workers int) {
	r.Compute(float64(a.Rows()) * float64(a.Cols()) * float64(b.Cols()))
	matrix.MulIntoVal(c, a, b, workers)
}

// shareCounts returns the balanced per-member word counts for splitting a
// packed block of total words across p owners.
func shareCounts(total, p int) []int {
	return shareCountsInto(make([]int, p), total)
}

// shareCountsInto is shareCounts writing into counts (whose length is the
// owner count); it returns counts.
func shareCountsInto(counts []int, total int) []int {
	p := len(counts)
	q, rem := total/p, total%p
	for i := range counts {
		counts[i] = q
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// shareRange returns the packed-word range [lo, hi) owned by member idx
// under shareCounts(total, p).
func shareRange(total, p, idx int) (lo, hi int) {
	lo = matrix.PartStart(total, p, idx)
	return lo, lo + matrix.PartSize(total, p, idx)
}

// blockRange returns the row/column ranges of grid cell (i1, i3) of C under
// the balanced p1×p3 partition.
func blockRange(n, p, i int) (start, size int) {
	return matrix.PartStart(n, p, i), matrix.PartSize(n, p, i)
}
