package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
)

// LimitedMemory reproduces the §6.2 analysis for a square n×n problem with
// per-processor memory M: sweeping P, it reports the memory-independent
// bound D, the memory-dependent leading term 2mnk/(P√M), which bound binds,
// whether Algorithm 1's 3D footprint fits in M, and the two §6.2
// thresholds — the crossover P = (8/27)·mnk/M^{3/2} and the critical memory
// (4/9)(mnk/P)^{2/3}.
func LimitedMemory(n int, mem float64) Artifact {
	d := core.Square(n)
	crossover := core.CrossoverP(d, mem)
	tb := report.NewTable(
		fmt.Sprintf("Memory-dependent vs memory-independent bounds, %v, M = %s words (crossover P = %s)",
			d, report.Num(mem), report.Num(crossover)),
		"P", "mem-independent D", "mem-dependent 2mnk/(P√M)", "binding", "Alg1 footprint", "fits in M", "critical memory",
	)
	for p := 1; p <= 1<<22; p *= 4 {
		if float64(p) < crossover/64 || float64(p) > crossover*64 {
			continue
		}
		// D is both the memory-independent bound's footprint and what
		// Algorithm 1 holds per processor on the optimal grid.
		mi := core.D(d, p)
		md := core.MemoryDependentLeading(d, p, mem)
		_, mdBinds := core.BindingBound(d, p, mem)
		binding := "memory-independent"
		if mdBinds {
			binding = "memory-dependent"
		}
		tb.AddRow(
			fmt.Sprintf("%d", p),
			report.Num(mi),
			report.Num(md),
			binding,
			report.Num(mi),
			fmt.Sprintf("%v", mi <= mem),
			report.Num(core.CriticalMemory(d, p)),
		)
	}
	note := fmt.Sprintf(
		"\nPerfect strong scaling (total communication flat in P) is possible only up to P = %s;\n"+
			"beyond it the memory-independent Case 3 bound, decaying as P^(-2/3), binds (§6.2, Ballard et al. 2012b).\n",
		report.Num(crossover))
	return Artifact{
		ID:    "E8-limited-memory",
		Title: "§6.2: limited-memory regimes and the strong-scaling limit",
		Text:  tb.String() + note,
		CSV:   tb.CSV(),
	}
}
