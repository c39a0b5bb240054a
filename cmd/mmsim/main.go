// Command mmsim runs a parallel matrix multiplication algorithm on the
// simulated α-β-γ machine and reports measured communication against the
// predictions and Theorem 3's lower bound:
//
//	mmsim -alg Alg1 -n1 768 -n2 192 -n3 48 -p 512
//	mmsim -alg all  -n1 64 -n2 64 -n3 64 -p 64 -alpha 1 -beta 1 -gamma 0.01
//	mmsim -alg Alg1 -n1 64 -n2 64 -n3 64 -p 64 -topo torus=4x4x4 -place contiguous
//
// Algorithms: Alg1, AllToAll3D, CARMA, Alg1LowMem, OneD, SUMMA, Cannon,
// TwoPointFiveD, or "all". The product is always verified against a serial reference. With
// -topo, messages are priced through the fabric's routes and contention
// factors instead of the paper's dedicated per-pair links.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
	"repro/internal/topo"
)

// cliConfig is the raw command line after flag parsing, before validation.
type cliConfig struct {
	alg                 string
	n1, n2, n3, p       int
	alpha, beta, gamma  float64
	layers              int
	seed                uint64
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
	fs.StringVar(&c.alg, "alg", "Alg1", "algorithm name or 'all'")
	fs.IntVar(&c.n1, "n1", 768, "rows of A")
	fs.IntVar(&c.n2, "n2", 192, "columns of A / rows of B")
	fs.IntVar(&c.n3, "n3", 48, "columns of B")
	fs.IntVar(&c.p, "p", 64, "number of processors")
	fs.Float64Var(&c.alpha, "alpha", 0, "per-message latency cost")
	fs.Float64Var(&c.beta, "beta", 1, "per-word bandwidth cost")
	fs.Float64Var(&c.gamma, "gamma", 0, "per-flop compute cost")
	fs.IntVar(&c.layers, "layers", 0, "2.5D replication factor (0 = auto)")
	fs.Uint64Var(&c.seed, "seed", 1, "input matrix seed")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome-trace JSON file (chrome://tracing, Perfetto) to this path (single algorithm only)")
	fs.BoolVar(&c.timeline, "timeline", false, "print a simulated-time Gantt timeline (single algorithm only)")
	fs.BoolVar(&c.traffic, "traffic", false, "print the traffic heatmap (single algorithm only)")
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
	d                 core.Dims
	p                 int
	entries           []algs.Entry
	opts              algs.Opts
	seed              uint64
	trace             string
	timeline, traffic bool
}

// resolve validates a cliConfig into a runSpec. Unknown algorithm and
// topology names are errors listing the valid choices; negative or
// non-finite costs, a recording flag with more than one algorithm, and
// -traffic past maxTrafficP wrap core.ErrBadOpts.
func resolve(c cliConfig) (runSpec, error) {
	s := runSpec{
		p:        c.p,
		seed:     c.seed,
		trace:    c.trace,
		timeline: c.timeline,
		traffic:  c.traffic,
	}
	s.d = core.NewDims(c.n1, c.n2, c.n3)
	if err := s.d.Validate(); err != nil {
		return s, err
	}
	if c.p < 1 {
		return s, fmt.Errorf("P must be ≥ 1, got %d: %w", c.p, core.ErrBadProcessorCount)
	}
	if strings.EqualFold(c.alg, "all") {
		s.entries = algs.Registry()
	} else {
		e, err := algs.Lookup(c.alg)
		if err != nil {
			return s, fmt.Errorf("unknown algorithm %q (valid: %s, or \"all\"): %w",
				c.alg, strings.Join(algs.Names(), ", "), core.ErrUnsupportedAlg)
		}
		s.entries = []algs.Entry{e}
	}
	if len(s.entries) > 1 && (c.trace != "" || c.timeline || c.traffic) {
		return s, fmt.Errorf("-trace, -timeline and -traffic record a single algorithm, but -alg %s selects %d: %w",
			c.alg, len(s.entries), core.ErrBadOpts)
	}
	if c.traffic && c.p > maxTrafficP {
		return s, fmt.Errorf("-traffic records a P×P matrix and allows P up to %d, got %d: %w",
			maxTrafficP, c.p, core.ErrBadOpts)
	}
	s.opts = algs.Opts{
		Config: machine.Config{Alpha: c.alpha, Beta: c.beta, Gamma: c.gamma},
		Layers: c.layers,
		Trace:  c.trace != "" || c.timeline || c.traffic,
	}
	if err := s.opts.Config.Validate(); err != nil {
		return s, err
	}
	if c.topoSpec != "" {
		fabric, err := topo.Parse(c.topoSpec, c.p, topo.Link{Alpha: c.alpha, Beta: c.beta})
		if err != nil {
			return s, err
		}
		place, err := topo.ParsePolicy(c.placeName)
		if err != nil {
			return s, err
		}
		s.opts.Topo = fabric
		s.opts.Place = place
	} else if c.placeName != "" {
		if _, err := topo.ParsePolicy(c.placeName); err != nil {
			return s, err
		}
	}
	return s, nil
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

// run executes the resolved spec and returns the process exit code: 0 on
// success, 1 on a failed run or wrong product.
func run(s runSpec, out, errOut io.Writer) int {
	a := matrix.Random(s.d.N1, s.d.N2, s.seed)
	b := matrix.Random(s.d.N2, s.d.N3, s.seed+1)
	want := matrix.Mul(a, b)
	bound := core.LowerBound(s.d, s.p)

	fmt.Fprintf(out, "problem %v, P = %d, %v; Theorem 3 bound = %s words/proc\n",
		s.d, s.p, core.CaseOf(s.d, s.p), report.Num(bound))
	if s.opts.Topo != nil {
		fmt.Fprintf(out, "topology %s, placement %s\n", s.opts.Topo.Name(), s.opts.Place)
	}
	fmt.Fprintln(out)
	tb := report.NewTable("", "algorithm", "grid", "words/proc", "ratio", "msgs/proc", "flops/proc", "peak mem", "critical path", "correct")
	failed := false
	var lastTrace *machine.Trace
	for _, e := range s.entries {
		res, err := e.Run(a, b, s.p, s.opts)
		if err != nil {
			tb.AddRow(e.Name, "-", "-", "-", "-", "-", "-", "-", err.Error())
			failed = true
			continue
		}
		ok := res.C.MaxAbsDiff(want) <= 1e-9*float64(s.d.N2)
		if !ok {
			failed = true
		}
		lastTrace = res.Trace
		maxMsgs, maxFlops := 0, 0.0
		for _, rs := range res.Stats.Ranks {
			if rs.MsgsRecv > maxMsgs {
				maxMsgs = rs.MsgsRecv
			}
			if rs.Flops > maxFlops {
				maxFlops = rs.Flops
			}
		}
		tb.AddRow(
			e.Name,
			res.Grid.String(),
			report.Num(res.CommCost()),
			fmt.Sprintf("%.3f", ratio(res.CommCost(), bound)),
			fmt.Sprintf("%d", maxMsgs),
			report.Num(maxFlops),
			report.Num(res.Stats.MaxPeakMemory),
			report.Num(res.Stats.CriticalPath),
			fmt.Sprintf("%v", ok),
		)
	}
	fmt.Fprint(out, tb.String())
	// resolve admits the recording flags with one algorithm only; a failed
	// run has nothing recorded.
	if s.traffic && lastTrace != nil {
		tm := lastTrace.Traffic()
		fmt.Fprintln(out)
		fmt.Fprint(out, tm.Heatmap())
		fmt.Fprintf(out, "active pairs: %d of %d\n", tm.ActivePairs(), s.p*(s.p-1))
	}
	if s.timeline && lastTrace != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, lastTrace.Timeline(100))
		fmt.Fprintln(out)
		fmt.Fprint(out, lastTrace.Summary())
	}
	if s.trace != "" && lastTrace != nil {
		if err := writeChromeTrace(s.trace, lastTrace); err != nil {
			fmt.Fprintf(errOut, "mmsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "\nwrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", s.trace)
	}
	if failed {
		return 1
	}
	return 0
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
