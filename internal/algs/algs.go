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
//   - CARMA — the Demmel et al. 2013 recursive algorithm, run as Alg1 on
//     its greedy-halving grid.
//   - Alg1LowMem — the §6.2 adaptation of Alg1 that gathers its panels in
//     chunks, trading latency for temporary memory.
//
// Every algorithm starts from a one-copy distribution of the inputs, ends
// with a one-copy distribution of the output (as Theorem 3 assumes), runs
// entirely through the simulated network, and returns the assembled product
// along with the machine statistics, so tests can verify numerical
// correctness against a serial product and experiments can compare measured
// communication against the bounds. All of them run through one harness
// (run), which honors the topology and tracing options alike.
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
	// Trace enables event tracing; the recorded timeline is returned in
	// Result.Trace, whose Traffic method sums its per-pair traffic.
	Trace bool
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
// algorithm-specific requirements: the machine costs must be non-negative
// and finite, the layer count non-negative, the collective family a known
// value, and a non-zero grid must have positive extents. Failures
// wrap core.ErrBadOpts (or core.ErrGridMismatch for the grid), so callers
// can dispatch with errors.Is.
func (o Opts) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
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

// run is the harness every algorithm runs through. It builds the simulated
// machine for the ranks of g, honoring the topology and tracing options;
// runs body on every rank; and assembles C from the chunk each body
// returns, which holds the rank's share of its (i1, i3) block of C (see
// assembleC). With a topology set, ranks are placed onto its
// endpoints and every send is priced through the resulting Network; a
// topology whose endpoint count differs from the rank count wraps
// core.ErrBadTopology.
func run(name string, d core.Dims, g grid.Grid, opts Opts, body func(*machine.Rank) []float64) (*Result, error) {
	p := g.Size()
	w, err := machine.New(p, opts.Config)
	if err != nil {
		return nil, err
	}
	if opts.Topo != nil {
		if opts.Topo.P() != p {
			return nil, fmt.Errorf("algs: topology %s has %d endpoints, run uses %d processors: %w",
				opts.Topo.Name(), opts.Topo.P(), p, core.ErrBadTopology)
		}
		net, err := topo.NewNetwork(opts.Topo, opts.Place)
		if err != nil {
			return nil, err
		}
		w.SetNetwork(net)
	}
	res := &Result{Name: name, Grid: g}
	if opts.Trace {
		res.Trace = w.EnableTracing()
	}
	chunks := make([][]float64, p)
	if err := w.Run(func(r *machine.Rank) { chunks[r.ID()] = body(r) }); err != nil {
		return nil, err
	}
	res.C = assembleC(d, g, chunks)
	res.Stats = w.Stats()
	return res, nil
}

// assembleC reconstructs the global C from the per-rank chunks: the
// (i1, i3) block of C under the balanced P1×P3 partition is the
// concatenation, in Axis2 fiber order, of the chunks held by ranks
// (i1, ·, i3). The 2D and 1D algorithms are the P2 = 1 case: each rank's
// chunk is its whole block. Each chunk is copied straight into its rows of
// C, continuing where the previous chunk of the block stopped.
func assembleC(d core.Dims, g grid.Grid, chunks [][]float64) *matrix.Dense {
	c := matrix.New(d.N1, d.N3)
	for i1 := 0; i1 < g.P1; i1++ {
		for i3 := 0; i3 < g.P3; i3++ {
			r0, h := blockRange(d.N1, g.P1, i1)
			c0, wd := blockRange(d.N3, g.P3, i3)
			k := 0 // words of the block written, in row-major order
			for i2 := 0; i2 < g.P2; i2++ {
				for chunk := chunks[g.Rank(i1, i2, i3)]; len(chunk) > 0; {
					n := copy(c.Row(r0 + k/wd)[c0+k%wd:c0+wd], chunk)
					chunk, k = chunk[n:], k+n
				}
			}
			if k != h*wd {
				panic(fmt.Sprintf("algs: block (%d, %d) of C got %d words, want %d", i1, i3, k, h*wd))
			}
		}
	}
	return c
}

// Result is the outcome of a simulated parallel multiplication.
type Result struct {
	// Name of the algorithm that produced the result.
	Name string
	// C is the assembled n1×n3 product.
	C *matrix.Dense
	// Grid is the processor grid used; the 2D and 1D algorithms have P2 = 1.
	Grid grid.Grid
	// Stats are the machine statistics of the run.
	Stats machine.WorldStats
	// Trace holds the event timeline when Opts.Trace was set, else nil.
	Trace *machine.Trace
}

// CommCost returns the per-processor communication volume of the run (max
// words received by any rank), the quantity Theorem 3 bounds.
func (r *Result) CommCost() float64 { return r.Stats.CommCost() }

// dimsOf derives the problem shape from the input matrices. Every algorithm
// calls it first, so it also rejects a processor count below one, before
// any grid divides by it, and options Opts.Validate refuses.
func dimsOf(a, b *matrix.Dense, p int, opts Opts) (core.Dims, error) {
	if p < 1 {
		return core.Dims{}, fmt.Errorf("algs: need at least one processor, got %d: %w", p, core.ErrBadProcessorCount)
	}
	if a.Cols() != b.Rows() {
		return core.Dims{}, fmt.Errorf("algs: inner dimensions %d and %d disagree: %w", a.Cols(), b.Rows(), core.ErrBadDims)
	}
	if err := opts.Validate(); err != nil {
		return core.Dims{}, err
	}
	return core.NewDims(a.Rows(), a.Cols(), b.Cols()), nil
}

// localMulAdd computes c += a·b on rank r with the sequential kernel,
// charging the scalar-multiplication count to the simulated clock. It is
// the one way a rank body multiplies, and it allocates nothing, so c, a and
// b may be matrix headers on the caller's stack wrapping pooled buffers. A
// rank runs no goroutines of its own: ranks are already concurrent, and a
// rank body blocks only in Recv.
func localMulAdd(r *machine.Rank, c, a, b *matrix.Dense) {
	r.Compute(float64(a.Rows()) * float64(a.Cols()) * float64(b.Cols()))
	matrix.MulAdd(c, a, b)
}

// shareRange returns the packed-word range [lo, hi) owned by member idx
// under matrix.PartSizes of total words over p members.
func shareRange(total, p, idx int) (lo, hi int) {
	lo = matrix.PartStart(total, p, idx)
	return lo, lo + matrix.PartSize(total, p, idx)
}

// blockRange returns the row/column ranges of grid cell (i1, i3) of C under
// the balanced p1×p3 partition.
func blockRange(n, p, i int) (start, size int) {
	return matrix.PartStart(n, p, i), matrix.PartSize(n, p, i)
}
