// Command lbcalc computes the paper's communication lower bounds for a
// given multiplication shape and processor count:
//
//	lbcalc -n1 9600 -n2 2400 -n3 600 -p 512 [-mem 67500]
//
// It reports the Theorem 3 case, thresholds, the bound and its leading
// term, the Lemma 2 optimizer with its KKT certificate residual, the
// optimal processor grids (§5.2 analytic and exhaustive), the prior-work
// bounds of Table 1, and — when -mem is given — the §6.2 memory-dependent
// comparison.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/report"
)

func main() {
	n1 := flag.Int("n1", 9600, "rows of A")
	n2 := flag.Int("n2", 2400, "columns of A / rows of B")
	n3 := flag.Int("n3", 600, "columns of B")
	p := flag.Int("p", 512, "number of processors")
	mem := flag.Float64("mem", 0, "per-processor memory in words (0: memory-independent analysis only)")
	flag.Parse()

	d := core.NewDims(*n1, *n2, *n3)
	if err := d.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *p < 1 {
		fmt.Fprintln(os.Stderr, "lbcalc: -p must be positive")
		os.Exit(2)
	}
	if !(*mem >= 0 && *mem <= math.MaxFloat64) {
		fmt.Fprintln(os.Stderr, "lbcalc: -mem must be non-negative and finite")
		os.Exit(2)
	}

	t1, t2 := core.Thresholds(d)
	fmt.Printf("problem: %v on P = %d processors\n", d, *p)
	fmt.Printf("case: %v (thresholds m/n = %s, mn/k² = %s)\n\n",
		core.CaseOf(d, *p), report.Num(t1), report.Num(t2))

	sol := core.Lemma2Closed(d, *p)
	fmt.Printf("Lemma 2 optimizer: x* = (%s, %s, %s), D = %s (relative KKT residual %.2e)\n",
		report.Num(sol.X1), report.Num(sol.X2), report.Num(sol.X3), report.Num(sol.Sum()),
		core.Lemma2KKTRelativeResidual(d, *p))
	fmt.Printf("Theorem 3 bound:   %s words per processor (leading term %s × %s)\n\n",
		report.Num(core.LowerBound(d, *p)),
		report.Num(core.TightConstant(core.CaseOf(d, *p))),
		report.Num(core.LeadingTerm(d, *p)))

	g1, g2, g3 := grid.Analytic(d, *p)
	fmt.Printf("analytic grid (§5.2): %.3f x %.3f x %.3f\n", g1, g2, g3)
	opt := grid.Optimal(d, *p)
	fmt.Printf("best integer grid:    %v  (eq.(3) cost %s words, %.4f× bound)\n",
		opt, report.Num(grid.CommCost(d, opt)), ratio(grid.CommCost(d, opt), core.LowerBound(d, *p)))
	if cg, err := grid.CaseGrid(d, *p); err == nil {
		fmt.Printf("exact case grid:      %v  (attains the bound word-for-word)\n", cg)
	}
	fmt.Println()

	tb := report.NewTable("prior-work bounds (leading term only, Table 1)", "work", "bound (words)")
	for _, w := range core.AllWorks() {
		tb.AddRow(w.String(), report.Num(w.Bound(d, *p)))
	}
	fmt.Print(tb.String())

	if *mem > 0 {
		fmt.Println()
		md := core.MemoryDependentLeading(d, *p, *mem)
		_, mdBinds := core.BindingBound(d, *p, *mem)
		fmt.Printf("§6.2 with M = %s words/processor:\n", report.Num(*mem))
		fmt.Printf("  memory-dependent bound 2mnk/(P√M) = %s words\n", report.Num(md))
		fmt.Printf("  minimum memory to hold 1/P of data = %s words\n", report.Num(core.MinLocalMemory(d, *p)))
		fmt.Printf("  Algorithm 1 footprint (D)          = %s words (fits: %v)\n",
			report.Num(core.Alg1LocalMemory(d, *p)), core.Alg1LocalMemory(d, *p) <= *mem)
		which := "memory-independent (Theorem 3)"
		if mdBinds {
			which = "memory-dependent"
		}
		fmt.Printf("  binding bound: %s\n", which)
		fmt.Printf("  strong-scaling limit P = (8/27)·mnk/M^(3/2) = %s\n",
			report.Num(core.PerfectStrongScalingLimit(d, *mem)))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
