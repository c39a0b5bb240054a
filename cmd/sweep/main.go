// Command sweep runs configurable parameter sweeps over problem shapes,
// processor counts, and algorithms on the simulated machine, emitting a
// table or CSV — the workload-generator half of the benchmark harness:
//
//	sweep -dims 768x192x48 -procs 1,4,16,64,512 -algs Alg1,SUMMA
//	sweep -dims 64x64x64,128x32x8 -procs 16 -algs all -csv -alpha 1 -gamma 0.01
//	sweep -dims 768x192x48 -procs 1,4,16,64 -workers 4
//
// Every run is verified against a serial product; each row reports the
// measured per-processor communication, Theorem 3's bound, and the ratio.
// Sweep points are independent simulations, so -workers N fans them out
// across N goroutines; rows are emitted in sweep order either way, making
// the output byte-identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/report"
)

// shapeInput bundles one problem shape with its inputs and the serial
// reference product every sweep point on that shape is checked against.
type shapeInput struct {
	d          core.Dims
	a, b, want *matrix.Dense
}

// point is one sweep cell: shape si × processor count procs[pi] ×
// algorithm entries[ei].
type point struct{ si, pi, ei int }

func main() {
	dimsFlag := flag.String("dims", "768x192x48", "comma-separated list of n1xn2xn3 shapes")
	procsFlag := flag.String("procs", "1,4,16,64", "comma-separated processor counts")
	algsFlag := flag.String("algs", "Alg1", "comma-separated algorithm names or 'all'")
	alpha := flag.Float64("alpha", 0, "per-message latency cost")
	beta := flag.Float64("beta", 1, "per-word bandwidth cost")
	gamma := flag.Float64("gamma", 0, "per-flop compute cost")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	seed := flag.Uint64("seed", 1, "input matrix seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"sweep points evaluated concurrently; output is identical for every value")
	flag.Parse()

	shapes, err := parseDims(*dimsFlag)
	if err != nil {
		fatal(err)
	}
	procs, err := parseInts(*procsFlag)
	if err != nil {
		fatal(err)
	}
	entries, err := parseAlgs(*algsFlag)
	if err != nil {
		fatal(err)
	}
	experiments.SetWorkers(*workers)

	// Each shape's inputs and serial reference are built once, in parallel
	// across shapes; the sweep points then only read them.
	inputs, err := experiments.Map(len(shapes), func(i int) (shapeInput, error) {
		d := shapes[i]
		a := matrix.Random(d.N1, d.N2, *seed)
		b := matrix.Random(d.N2, d.N3, *seed+1)
		return shapeInput{d: d, a: a, b: b, want: matrix.Mul(a, b)}, nil
	})
	if err != nil {
		fatal(err)
	}

	var points []point
	for si := range shapes {
		for pi := range procs {
			for ei := range entries {
				points = append(points, point{si, pi, ei})
			}
		}
	}

	cfg := machine.Config{Alpha: *alpha, Beta: *beta, Gamma: *gamma}
	type row struct {
		cells []string
		wrong bool
	}
	rows, err := experiments.Map(len(points), func(i int) (row, error) {
		pt := points[i]
		in, p, e := inputs[pt.si], procs[pt.pi], entries[pt.ei]
		d := in.d
		bound := core.LowerBound(d, p)
		res, err := e.Run(in.a, in.b, p, algs.Opts{Config: cfg})
		if err != nil {
			return row{cells: []string{d.String(), strconv.Itoa(p), core.CaseOf(d, p).String(),
				e.Name, "-", "-", report.Num(bound), "-", "-", "n/a: " + err.Error()}}, nil
		}
		status := "ok"
		wrong := res.C.MaxAbsDiff(in.want) > 1e-9*float64(d.N2)
		if wrong {
			status = "WRONG RESULT"
		}
		ratio := "1.000"
		if bound > 0 {
			ratio = fmt.Sprintf("%.3f", res.CommCost()/bound)
		}
		return row{
			cells: []string{
				d.String(), strconv.Itoa(p), core.CaseOf(d, p).String(),
				e.Name, res.Grid.String(),
				report.Num(res.CommCost()), report.Num(bound), ratio,
				report.Num(res.Stats.CriticalPath), status,
			},
			wrong: wrong,
		}, nil
	})
	if err != nil {
		fatal(err)
	}

	tb := report.NewTable(
		fmt.Sprintf("sweep (alpha=%g beta=%g gamma=%g)", *alpha, *beta, *gamma),
		"dims", "P", "case", "algorithm", "grid", "words/proc", "bound", "ratio", "critical path", "status",
	)
	exitCode := 0
	for _, r := range rows {
		tb.AddRow(r.cells...)
		if r.wrong {
			exitCode = 1
		}
	}
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Print(tb.String())
	}
	os.Exit(exitCode)
}

// parseDims parses a comma-separated list of n1xn2xn3 shapes. A shape
// core.Dims.Validate refuses, non-positive or too large for exact float64
// products, is an error wrapping core.ErrBadDims.
func parseDims(s string) ([]core.Dims, error) {
	var out []core.Dims
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), "x")
		if len(fields) != 3 {
			return nil, fmt.Errorf("sweep: bad dims %q (want n1xn2xn3)", part)
		}
		var v [3]int
		for i, f := range fields {
			n, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("sweep: bad dimension %q in %q", f, part)
			}
			v[i] = n
		}
		d := core.NewDims(v[0], v[1], v[2])
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: bad dims %q: %w", part, err)
		}
		out = append(out, d)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep: bad processor count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseAlgs(s string) ([]algs.Entry, error) {
	if strings.EqualFold(s, "all") {
		return algs.Registry(), nil
	}
	var out []algs.Entry
	for _, part := range strings.Split(s, ",") {
		e, err := algs.Lookup(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("sweep: unknown algorithm %q (valid: %s, or \"all\")",
				part, strings.Join(algs.Names(), ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
