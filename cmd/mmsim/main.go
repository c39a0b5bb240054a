// Command mmsim runs parallel matrix multiplication algorithms on the
// simulated α-β-γ machine and reports measured communication against
// Theorem 3's lower bound, one row per shape × P × algorithm:
//
//	mmsim -alg Alg1 -dims 768x192x48 -p 512
//	mmsim -alg all -dims 64x64x64,128x32x8 -p 1,8,64 -alpha 1 -gamma 0.01
//	mmsim -alg Alg1,SUMMA -dims 768x192x48 -p 1,4,16,64 -csv
//	mmsim -alg Alg1 -dims 64x64x64 -p 64 -topo torus=4x4x4 -place contiguous
//
// Algorithms: Alg1, AllToAll3D, CARMA, Alg1LowMem, OneD, SUMMA, Cannon,
// TwoPointFiveD, or "all". Every product is verified against a serial
// reference. With -topo, messages are priced through the fabric's routes
// and contention factors instead of the paper's dedicated per-pair links;
// the spec must fit every P. -trace, -timeline and -traffic record a
// single run.
//
// The runs are independent simulations fanned across GOMAXPROCS
// goroutines, and the rows print in order, so the output is the same at
// every GOMAXPROCS. A run the algorithm refuses, such as Cannon at a
// non-square P, prints an "n/a" row and leaves the exit status alone; a
// wrong product or any other failed run exits 1, and bad flags exit 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
	"repro/internal/topo"
)

// cliConfig is the raw command line after flag parsing, before validation.
type cliConfig struct {
	alg, dims, procs    string
	alpha, beta, gamma  float64
	layers              int
	seed                uint64
	csv                 bool
	trace               string
	timeline, traffic   bool
	topoSpec, placeName string
}

// parseFlags parses args (not including the program name) into a cliConfig.
// Flag-syntax errors come back as errors rather than exiting, so tests can
// table-drive the parser.
func parseFlags(args []string, errOut io.Writer) (cliConfig, error) {
	var c cliConfig
	fs := flag.NewFlagSet("mmsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&c.alg, "alg", "Alg1", "comma-separated algorithm names or 'all'")
	fs.StringVar(&c.dims, "dims", "768x192x48", "comma-separated n1xn2xn3 shapes (A is n1×n2, B is n2×n3)")
	fs.StringVar(&c.procs, "p", "64", "comma-separated processor counts")
	fs.Float64Var(&c.alpha, "alpha", 0, "per-message latency cost")
	fs.Float64Var(&c.beta, "beta", 1, "per-word bandwidth cost")
	fs.Float64Var(&c.gamma, "gamma", 0, "per-flop compute cost")
	fs.IntVar(&c.layers, "layers", 0, "2.5D replication factor (0 = auto)")
	fs.Uint64Var(&c.seed, "seed", 1, "input matrix seed")
	fs.BoolVar(&c.csv, "csv", false, "print the rows as CSV and nothing else")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome-trace JSON file (chrome://tracing, Perfetto) to this path (single run only)")
	fs.BoolVar(&c.timeline, "timeline", false, "print a simulated-time Gantt timeline (single run only)")
	fs.BoolVar(&c.traffic, "traffic", false, "print the traffic heatmap (single run only)")
	fs.StringVar(&c.topoSpec, "topo", "", "interconnect topology: "+strings.Join(topo.Kinds(), ", ")+" (empty = flat dedicated links)")
	fs.StringVar(&c.placeName, "place", "", "rank placement on the topology: "+strings.Join(topo.Policies(), ", ")+" (default contiguous)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, nil
}

// maxTrafficP bounds -traffic, which traces the run and sums the trace
// into a P×P float64 matrix, 128 MiB at this P.
const maxTrafficP = 4096

// runSpec is a fully validated invocation: everything run needs, resolved
// against the algorithm registry and the topology parser.
type runSpec struct {
	shapes  []core.Dims
	procs   []int
	fabrics []topo.Topology // the -topo fabric at each of procs; nil without -topo
	entries []algs.Entry
	// opts is every run's options but the fabric.
	opts              algs.Opts
	seed              uint64
	csv               bool
	trace             string
	timeline, traffic bool
}

// resolve validates a cliConfig into a runSpec. Malformed shapes wrap
// core.ErrBadDims and processor counts below one core.ErrBadProcessorCount;
// unknown algorithm and topology names are errors listing the valid
// choices, and a topology that does not fit one of the P wraps
// core.ErrBadTopology. Negative or non-finite costs, a recording flag
// that selects more than one run or is given with -csv, and -traffic past
// maxTrafficP wrap core.ErrBadOpts.
func resolve(c cliConfig) (runSpec, error) {
	s := runSpec{
		seed:     c.seed,
		csv:      c.csv,
		trace:    c.trace,
		timeline: c.timeline,
		traffic:  c.traffic,
	}
	var err error
	if s.shapes, err = parseDims(c.dims); err != nil {
		return s, err
	}
	if s.procs, err = parseProcs(c.procs); err != nil {
		return s, err
	}
	if s.entries, err = parseAlgs(c.alg); err != nil {
		return s, err
	}
	record := c.trace != "" || c.timeline || c.traffic
	if runs := len(s.shapes) * len(s.procs) * len(s.entries); record && runs != 1 {
		return s, fmt.Errorf("-trace, -timeline and -traffic record a single run, but -dims, -p and -alg select %d: %w",
			runs, core.ErrBadOpts)
	}
	if c.csv && (c.timeline || c.traffic) {
		return s, fmt.Errorf("-timeline and -traffic print text beside the rows -csv prints alone: %w", core.ErrBadOpts)
	}
	if c.traffic && s.procs[0] > maxTrafficP {
		return s, fmt.Errorf("-traffic records a P×P matrix and allows P up to %d, got %d: %w",
			maxTrafficP, s.procs[0], core.ErrBadOpts)
	}
	s.opts = algs.Opts{
		Config: machine.Config{Alpha: c.alpha, Beta: c.beta, Gamma: c.gamma},
		Layers: c.layers,
		Trace:  record,
	}
	if err := s.opts.Config.Validate(); err != nil {
		return s, err
	}
	if s.opts.Place, err = topo.ParsePolicy(c.placeName); err != nil {
		return s, err
	}
	if c.topoSpec != "" {
		for _, p := range s.procs {
			fabric, err := topo.Parse(c.topoSpec, p, topo.Link{Alpha: c.alpha, Beta: c.beta})
			if err != nil {
				return s, err
			}
			s.fabrics = append(s.fabrics, fabric)
		}
	}
	return s, nil
}

// parseDims parses a comma-separated list of n1xn2xn3 shapes. A malformed
// shape, or one core.Dims.Validate refuses (non-positive, or too large for
// exact float64 products), is an error wrapping core.ErrBadDims.
func parseDims(s string) ([]core.Dims, error) {
	var out []core.Dims
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), "x")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad dims %q (want n1xn2xn3): %w", part, core.ErrBadDims)
		}
		var v [3]int
		for i, f := range fields {
			n, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("bad dimension %q in %q: %w", f, part, core.ErrBadDims)
			}
			v[i] = n
		}
		d := core.NewDims(v[0], v[1], v[2])
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("bad dims %q: %w", part, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseProcs parses a comma-separated list of processor counts; anything
// but a positive integer wraps core.ErrBadProcessorCount.
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("P must be a positive integer, got %q: %w", part, core.ErrBadProcessorCount)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseAlgs resolves a comma-separated list of algorithm names through
// algs.Lookup, in the order given, or "all" to the whole registry. An
// unknown name wraps core.ErrUnsupportedAlg and lists the valid ones.
func parseAlgs(s string) ([]algs.Entry, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return algs.Registry(), nil
	}
	var out []algs.Entry
	for _, name := range strings.Split(s, ",") {
		e, err := algs.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("unknown algorithm %q (valid: %s, or \"all\"): %w",
				name, strings.Join(algs.Names(), ", "), core.ErrUnsupportedAlg)
		}
		out = append(out, e)
	}
	return out, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	spec, err := resolve(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmsim: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(spec, os.Stdout, os.Stderr))
}

// shapeInput bundles one problem shape with its inputs and the serial
// product every run on that shape is checked against.
type shapeInput struct {
	d          core.Dims
	a, b, want *matrix.Dense
}

// row is one printed row, whether its run failed (a wrong product, or an
// error that is not a refusal) and the run's trace when it was recorded.
type row struct {
	cells  []string
	failed bool
	trace  *machine.Trace
}

// run executes the resolved spec and returns the process exit code: 0 on
// success, 1 when a run failed or a recording could not be written.
func run(s runSpec, out, errOut io.Writer) int {
	// Each shape's inputs and serial product are built once; the runs then
	// only read them. Neither Map's function fails, so neither Map does.
	inputs, _ := experiments.Map(len(s.shapes), func(i int) (shapeInput, error) {
		d := s.shapes[i]
		a := matrix.Random(d.N1, d.N2, s.seed)
		b := matrix.Random(d.N2, d.N3, s.seed+1)
		return shapeInput{d: d, a: a, b: b, want: matrix.Mul(a, b)}, nil
	})
	nP, nE := len(s.procs), len(s.entries)
	rows, _ := experiments.Map(len(s.shapes)*nP*nE, func(i int) (row, error) {
		pi := i / nE % nP
		opts := s.opts
		if s.fabrics != nil {
			opts.Topo = s.fabrics[pi]
		}
		return runOne(inputs[i/(nP*nE)], s.procs[pi], s.entries[i%nE], opts), nil
	})

	title := fmt.Sprintf("alpha=%g beta=%g gamma=%g", s.opts.Config.Alpha, s.opts.Config.Beta, s.opts.Config.Gamma)
	if s.fabrics != nil {
		title += fmt.Sprintf("; topology %s, placement %s", s.fabrics[0].Name(), s.opts.Place)
	}
	tb := report.NewTable(title, "dims", "P", "case", "algorithm", "grid", "words/proc", "bound", "ratio",
		"msgs/proc", "flops/proc", "peak mem", "critical path", "correct")
	code := 0
	for _, r := range rows {
		tb.AddRow(r.cells...)
		if r.failed {
			code = 1
		}
	}
	if s.csv {
		fmt.Fprint(out, tb.CSV())
	} else {
		fmt.Fprint(out, tb.String())
	}
	// resolve admits the recording flags with one run only; a run that
	// failed or was refused has nothing recorded.
	tr := rows[0].trace
	if tr == nil {
		return code
	}
	if s.traffic {
		tm := tr.Traffic()
		fmt.Fprintln(out)
		fmt.Fprint(out, tm.Heatmap())
		fmt.Fprintf(out, "active pairs: %d of %d\n", tm.ActivePairs(), s.procs[0]*(s.procs[0]-1))
	}
	if s.timeline {
		fmt.Fprintln(out)
		fmt.Fprint(out, tr.Timeline(100))
		fmt.Fprintln(out)
		fmt.Fprint(out, tr.Summary())
	}
	if s.trace != "" {
		if err := writeChromeTrace(s.trace, tr); err != nil {
			fmt.Fprintf(errOut, "mmsim: %v\n", err)
			return 1
		}
		if !s.csv {
			fmt.Fprintf(out, "\nwrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", s.trace)
		}
	}
	return code
}

// runOne runs algorithm e on p processors against in and renders its row.
func runOne(in shapeInput, p int, e algs.Entry, opts algs.Opts) row {
	d := in.d
	bound := core.LowerBound(d, p)
	cells := []string{d.String(), strconv.Itoa(p), core.CaseOf(d, p).String(), e.Name}
	res, err := e.Run(in.a, in.b, p, opts)
	if err != nil {
		status, failed := "n/a: "+err.Error(), !refused(err)
		if failed {
			status = err.Error()
		}
		return row{cells: append(cells, "-", "-", report.Num(bound), "-", "-", "-", "-", "-", status), failed: failed}
	}
	ok := res.C.MaxAbsDiff(in.want) <= 1e-9*float64(d.N2)
	maxMsgs, maxFlops := 0, 0.0
	for _, rs := range res.Stats.Ranks {
		maxMsgs = max(maxMsgs, rs.MsgsRecv)
		maxFlops = max(maxFlops, rs.Flops)
	}
	return row{
		cells: append(cells,
			res.Grid.String(),
			report.Num(res.CommCost()),
			report.Num(bound),
			fmt.Sprintf("%.3f", ratio(res.CommCost(), bound)),
			strconv.Itoa(maxMsgs),
			report.Num(maxFlops),
			report.Num(res.Stats.MaxPeakMemory),
			report.Num(res.Stats.CriticalPath),
			strconv.FormatBool(ok),
		),
		failed: !ok,
		trace:  res.Trace,
	}
}

// refused reports whether err is a refusal: a run whose shape, P or
// options the algorithm does not accept, which the library marks by
// wrapping one of core's sentinels. Any other error, such as a rank that
// panicked, is a failed run.
func refused(err error) bool {
	for _, sentinel := range []error{
		core.ErrBadDims, core.ErrBadProcessorCount, core.ErrGridMismatch,
		core.ErrUnsupportedAlg, core.ErrBadOpts, core.ErrBadTopology,
		core.ErrTooManyRanks, core.ErrBadPlanRange, core.ErrBadProgram,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

func writeChromeTrace(path string, tr *machine.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 1
	}
	return a / b
}
