package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		return spec, fmt.Errorf("read %s: %w", path, err)
	}
	return spec, nil
}

// Verdicts, from least to most severe; a workload's row takes the most
// severe verdict of its metrics.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	unresolved = "unresolved"
	regressed  = "regressed"
)

var severity = map[string]int{unchanged: 0, improved: 1, unresolved: 2, regressed: 3}

// relDelta is the relative change from a to b, (b − a)/a: the approx idiom
// of a relative delta rather than an absolute epsilon.
func relDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	return (b - a) / a
}

// classify compares side b (the change) against side a (the parent) for
// one metric with the given relative bound. worse is b's median change
// relative to a's, positive when b is worse. A side's spread is the
// distance between its quartiles relative to its median:
//
//   - either spread wider than the bound: unresolved, unless every b
//     sample is better than every a sample (improved);
//   - b worse by more than the bound: regressed;
//   - b better by more than the bound and more than a's spread: improved;
//   - otherwise unchanged.
func classify(a, b []float64, bound float64, lowerBetter bool) (verdict string, worse float64) {
	a1, ma, a3 := quartiles(a)
	b1, mb, b3 := quartiles(b)
	worse = relDelta(ma, mb)
	if !lowerBetter {
		worse = -worse
	}
	spreadA, spreadB := (a3-a1)/ma, (b3-b1)/mb
	switch {
	case spreadA > bound || spreadB > bound:
		if allBetter(a, b, lowerBetter) {
			return improved, worse
		}
		return unresolved, worse
	case worse > bound:
		return regressed, worse
	case -worse > bound && -worse > spreadA:
		return improved, worse
	default:
		return unchanged, worse
	}
}

// allBetter reports whether every b sample beats every a sample.
func allBetter(a, b []float64, lowerBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				return false
			}
		}
	}
	return true
}

// splitSides splits the -compare arguments into the parent's and the
// change's set records: "A B..." or "A... -- B...".
func splitSides(args []string) (a, b []string, err error) {
	for i, arg := range args {
		if arg == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if a == nil && b == nil && len(args) > 0 {
		a, b = args[:1], args[1:]
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, fmt.Errorf("-compare needs A.json B.json... or A1.json... -- B1.json..., got %q", args)
	}
	return a, b, nil
}

// loadSide gathers each workload's end-to-end metric samples, one per run,
// across set record files.
func loadSide(files []string) (map[string]map[string][]float64, error) {
	side := make(map[string]map[string][]float64)
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var set setRecord
		if err := json.Unmarshal(blob, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, run := range set.Runs {
			if side[run.Workload] == nil {
				side[run.Workload] = make(map[string][]float64)
			}
			for name, v := range run.Result.Metrics {
				side[run.Workload][name] = append(side[run.Workload][name], v.Value)
			}
		}
	}
	return side, nil
}

// runCompare prints one row per workload comparing the change's set
// records against the parent's on every end-to-end metric BENCHMARK.json
// bounds, and reports whether any pair regressed.
func runCompare(w io.Writer, args []string, specPath string) (regressedAny bool, err error) {
	aFiles, bFiles, err := splitSides(args)
	if err != nil {
		return false, err
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSide(aFiles)
	if err != nil {
		return false, err
	}
	b, err := loadSide(bFiles)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := []string{"workload", "verdict"}
	for _, m := range spec.EndToEnd {
		header = append(header, fmt.Sprintf("%s(±%g%%)", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, wl := range spec.Workloads {
		row := []string{wl.Name, ""}
		worst := unchanged
		for _, m := range spec.EndToEnd {
			as, bs := a[wl.Name][m.Name], b[wl.Name][m.Name]
			v, cell := unresolved, "missing"
			if len(as) > 0 && len(bs) > 0 {
				var worse float64
				v, worse = classify(as, bs, m.Bound, m.Better == "lower")
				cell = fmt.Sprintf("%s %+.1f%%", v, 100*worse)
			}
			row = append(row, cell)
			if severity[v] > severity[worst] {
				worst = v
			}
		}
		row[1] = worst
		regressedAny = regressedAny || worst == regressed
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return regressedAny, tw.Flush()
}
