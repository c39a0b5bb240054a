package parmm

// The benchmark harness regenerates every table and figure of the paper —
// one benchmark per artifact, per DESIGN.md's experiment index — plus
// ablation benchmarks for the design choices DESIGN.md calls out. Custom
// metrics report the quantities the paper studies (words per processor,
// ratio to Theorem 3's bound) alongside Go's time/op:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algs"
	"repro/internal/benchrec"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// loopAllocs runs fn b.N times inside the timer and returns the mean heap
// allocations per iteration (the counter -benchmem reports), so the heavy
// benchmarks can derive a words-per-alloc metric: simulated communication
// volume moved per heap allocation, the figure of merit of the pooled
// communication hot path.
func loopAllocs(b *testing.B, fn func(i int)) float64 {
	b.Helper()
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-start) / float64(b.N)
}

// BenchmarkTable1 regenerates Table 1 (E1): the constants comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.Table1()
		if a.Text == "" {
			b.Fatal("empty artifact")
		}
	}
	b.ReportMetric(core.ThisPaper.Constant(core.Case3), "case3-constant")
	b.ReportMetric(core.ImprovementFactor(core.DemmelEtAl2013, core.Case3), "improvement-vs-demmel")
}

// BenchmarkLemma2Cases regenerates the Lemma 2 case diagram (E2) and
// reports the worst KKT certificate residual across the sweep.
func BenchmarkLemma2Cases(b *testing.B) {
	d := experiments.DefaultRectDims
	for i := 0; i < b.N; i++ {
		if a := experiments.Lemma2Cases(d); a.Text == "" {
			b.Fatal("empty artifact")
		}
	}
	worst := 0.0
	for _, p := range []int{1, 2, 4, 5, 34, 64, 65, 256, 4096} {
		if r := core.Lemma2KKTRelativeResidual(d, p); r > worst {
			worst = r
		}
	}
	b.ReportMetric(worst, "max-kkt-residual")
}

// BenchmarkTheorem3Curves regenerates the bound-vs-P curves (E3).
func BenchmarkTheorem3Curves(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a := experiments.BoundCurves(experiments.PaperRectDims, 1<<20); a.Text == "" {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkAlg1 runs the collective-heavy Algorithm 1 workload of the E7
// comparison as a top-level benchmark, so `-bench Alg1` exercises the
// pooled communication hot path directly. Besides the paper metrics it
// reports words/alloc — simulated words moved per heap allocation.
func BenchmarkAlg1(b *testing.B) {
	n, p := experiments.DefaultCompareN, experiments.DefaultCompareP
	a := matrix.Random(n, n, 17)
	bm := matrix.Random(n, n, 18)
	bound := core.LowerBound(core.Square(n), p)
	var res *algs.Result
	allocs := loopAllocs(b, func(int) {
		var err error
		res, err = algs.Alg1(a, bm, p, algs.Opts{Config: machine.BandwidthOnly()})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(res.CommCost(), "words/proc")
	b.ReportMetric(res.CommCost()/bound, "ratio-to-bound")
	if allocs > 0 {
		b.ReportMetric(res.Stats.TotalWordsSent/allocs, "words/alloc")
	}
}

// BenchmarkFigure1 regenerates Figure 1 (E4): Algorithm 1's per-collective
// data movement on a 3×3×3 grid.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(experiments.DefaultFig1N, 27); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (E5): the optimal grids of the
// 9600×2400×600 instance, reporting the 3D-case grid-search cost ratio.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := experiments.Figure2(); a.Text == "" {
			b.Fatal("empty artifact")
		}
	}
	d := experiments.PaperRectDims
	g := grid.Optimal(d, 512)
	b.ReportMetric(grid.CommCost(d, g)/core.LowerBound(d, 512), "grid-cost-over-bound")
}

// BenchmarkTightness regenerates the §5.2 tightness experiment (E6):
// simulated Algorithm 1 equals the bound in all three cases.
func BenchmarkTightness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tightness(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1.0, "measured-over-bound")
}

// BenchmarkAlgorithms regenerates the baseline comparison (E7), one
// sub-benchmark per algorithm, reporting measured words/proc and the ratio
// to the bound.
func BenchmarkAlgorithms(b *testing.B) {
	n, p := experiments.DefaultCompareN, experiments.DefaultCompareP
	d := core.Square(n)
	a := matrix.Random(n, n, 17)
	bm := matrix.Random(n, n, 18)
	bound := core.LowerBound(d, p)
	for _, e := range algs.Registry() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var res *algs.Result
			allocs := loopAllocs(b, func(int) {
				var err error
				res, err = e.Run(a, bm, p, algs.Opts{Config: machine.BandwidthOnly()})
				if err != nil {
					b.Fatal(err)
				}
			})
			b.ReportMetric(res.CommCost(), "words/proc")
			b.ReportMetric(res.CommCost()/bound, "ratio-to-bound")
			if allocs > 0 {
				b.ReportMetric(res.Stats.TotalWordsSent/allocs, "words/alloc")
			}
		})
	}
}

// BenchmarkStrongScaling regenerates the strong-scaling sweep (E7b).
func BenchmarkStrongScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StrongScaling(context.Background(), experiments.DefaultRectDims, []int{1, 4, 16, 64, 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimitedMemory regenerates the §6.2 analysis (E8), reporting the
// crossover processor count.
func BenchmarkLimitedMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := experiments.LimitedMemory(experiments.DefaultSquareN, experiments.DefaultMemoryWords); a.Text == "" {
			b.Fatal("empty artifact")
		}
	}
	b.ReportMetric(core.CrossoverP(core.Square(experiments.DefaultSquareN), experiments.DefaultMemoryWords), "crossover-P")
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationReduceScatterVsAllToAll compares the paper's
// Reduce-Scatter step against the Agarwal 1995 All-to-All on the same grid:
// same bandwidth, different message counts.
func BenchmarkAblationReduceScatterVsAllToAll(b *testing.B) {
	n, p := 48, 64
	a := matrix.Random(n, n, 3)
	bm := matrix.Random(n, n, 4)
	for _, variant := range []struct {
		name string
		run  algs.Runner
	}{{"ReduceScatter", algs.Alg1}, {"AllToAll", algs.AllToAll3D}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			var res *algs.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = variant.run(a, bm, p, algs.Opts{Config: machine.Config{Alpha: 1, Beta: 1}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CommCost(), "words/proc")
			b.ReportMetric(float64(res.Stats.TotalMessages), "total-messages")
			b.ReportMetric(res.Stats.CriticalPath, "critical-path")
		})
	}
}

// BenchmarkAblationRingVsRecursive compares the two collective families:
// equal bandwidth, ring pays p−1 latencies vs log₂(p).
func BenchmarkAblationRingVsRecursive(b *testing.B) {
	n, p := 48, 64
	a := matrix.Random(n, n, 5)
	bm := matrix.Random(n, n, 6)
	for _, variant := range []struct {
		name string
		alg  collective.Algorithm
	}{{"Ring", collective.Ring}, {"Recursive", collective.Recursive}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			var res *algs.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = algs.Alg1(a, bm, p, algs.Opts{
					Config:     machine.Config{Alpha: 1, Beta: 1},
					Collective: variant.alg,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CommCost(), "words/proc")
			b.ReportMetric(float64(res.Stats.TotalMessages), "total-messages")
		})
	}
}

// BenchmarkAblationGridSelection compares exhaustive divisor search against
// the §5.2 analytic construction at a P where both are integral.
func BenchmarkAblationGridSelection(b *testing.B) {
	d := experiments.PaperRectDims
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grid.Optimal(d, 512)
		}
	})
	b.Run("Analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := grid.CaseGrid(d, 512); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation25DLayers sweeps the 2.5D replication factor on a fixed
// machine, the §6.2 memory/communication trade-off.
func BenchmarkAblation25DLayers(b *testing.B) {
	n, p := 64, 256
	a := matrix.Random(n, n, 7)
	bm := matrix.Random(n, n, 8)
	for _, c := range []int{1, 4} {
		c := c
		b.Run(map[int]string{1: "c1", 4: "c4"}[c], func(b *testing.B) {
			var res *algs.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = algs.TwoPointFiveD(a, bm, p, algs.Opts{Config: machine.BandwidthOnly(), Layers: c})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CommCost(), "words/proc")
			b.ReportMetric(res.Stats.MaxPeakMemory, "peak-memory-words")
		})
	}
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkLocalMatMul measures the local compute kernel (real wall-clock,
// not simulated).
func BenchmarkLocalMatMul(b *testing.B) {
	a := matrix.Random(256, 256, 1)
	bm := matrix.Random(256, 256, 2)
	b.Run("Blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.Mul(a, bm)
		}
	})
}

// worldScalingBody is the scheduler-stress SPMD body of the P-scaling
// benchmarks; it lives in internal/benchrec so the repository benchmark
// (bench/) runs the identical workload (see that package for the body's
// design notes).
func worldScalingBody(p, rounds int) func(*machine.Rank) {
	return benchrec.ScalingBody(p, rounds)
}

// BenchmarkWorldScaling measures simulator wall-clock against the processor
// count on a fixed per-rank workload, the regime of the strong-scaling
// experiments (P in the thousands): ideal scheduler scaling keeps time/op
// growing linearly in P (total messages grow linearly), while a global-lock
// engine with broadcast wakeups degrades superlinearly.
func BenchmarkWorldScaling(b *testing.B) {
	const rounds = 16
	for _, p := range []int{64, 256, 1024, 4096} {
		p := p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			body := worldScalingBody(p, rounds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := machine.New(p, machine.BandwidthOnly())
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(2*rounds*p), "msgs/op")
		})
	}
}

// BenchmarkAlg1Scaling runs the paper's Algorithm 1 end-to-end at large
// processor counts — the full hot path (collectives over fibers, pooled
// buffers, local tiled matmul) rather than the synthetic scheduler stress of
// BenchmarkWorldScaling.
func BenchmarkAlg1Scaling(b *testing.B) {
	n := 256
	a := matrix.Random(n, n, 11)
	bm := matrix.Random(n, n, 12)
	for _, p := range []int{64, 512, 1024} {
		p := p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var res *algs.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = algs.Alg1(a, bm, p, algs.Opts{Config: machine.BandwidthOnly()})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CommCost(), "words/proc")
		})
	}
}

// BenchmarkCollectiveAllGather measures simulator throughput for the
// collective at the heart of Algorithm 1.
func BenchmarkCollectiveAllGather(b *testing.B) {
	allocs := loopAllocs(b, func(int) {
		w, err := machine.New(16, machine.BandwidthOnly())
		if err != nil {
			b.Fatal(err)
		}
		members := make([]int, 16)
		for j := range members {
			members[j] = j
		}
		err = w.Run(func(r *machine.Rank) {
			var g collective.Group
			g.Init(r, members, 1, collective.Auto)
			g.AllGather(make([]float64, 1024))
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	if allocs > 0 {
		// Each of the 16 ranks forwards 15 blocks of 1024 words.
		b.ReportMetric(16*15*1024/allocs, "words/alloc")
	}
}

// BenchmarkAblationLowMemChunks sweeps the §6.2 low-memory adaptation's
// chunk factor: bandwidth flat, latency up, gathered-panel memory down.
func BenchmarkAblationLowMemChunks(b *testing.B) {
	d := core.NewDims(768, 192, 48)
	g, err := grid.CaseGrid(d, 36)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random(d.N1, d.N2, 9)
	bm := matrix.Random(d.N2, d.N3, 10)
	for _, chunks := range []int{1, 4, 16} {
		chunks := chunks
		b.Run(map[int]string{1: "c1", 4: "c4", 16: "c16"}[chunks], func(b *testing.B) {
			var res *algs.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = algs.Alg1LowMem(a, bm, 36, chunks, algs.Opts{Config: machine.Config{Alpha: 1, Beta: 1}, Grid: g})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CommCost(), "words/proc")
			b.ReportMetric(float64(res.Stats.TotalMessages), "total-messages")
			b.ReportMetric(res.Stats.MaxPeakMemory, "peak-memory-words")
		})
	}
}

// BenchmarkFastMatmulContext regenerates the §2.3 fast-matmul artifact,
// whose product check runs CAPS at two levels (49 ranks).
func BenchmarkFastMatmulContext(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FastMatmul(4096, []int{1, 64, 4096}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.ClassicalVsStrassenBoundRatio(4096), "classical-over-strassen-P4096")
}

// BenchmarkExtensionD4 regenerates the §6.3 extension artifact.
func BenchmarkExtensionD4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Extension(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeometry regenerates the lattice-level verification artifact.
func BenchmarkGeometry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Geometry(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCARMA regenerates the recursive-vs-optimal grid artifact.
func BenchmarkCARMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := experiments.CARMAComparison(); a.Text == "" {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkRuntimeModel regenerates the model-vs-simulation artifact.
func BenchmarkRuntimeModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RuntimeModel(context.Background(), experiments.DefaultRectDims, experiments.DefaultRuntimeConfig, []int{1, 16, 512}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCAPS runs the parallel-Strassen experiment (E15), reporting the
// measured volume against the fast floor.
func BenchmarkCAPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CAPSExperiment(56); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.FastMatmulLeading(56, 49, core.OmegaStrassen), "fast-floor-words")
}

// BenchmarkModelRobustness regenerates the αβγ/BSP/LPRAM artifact (E14).
func BenchmarkModelRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ModelRobustness(); err != nil {
			b.Fatal(err)
		}
	}
}
