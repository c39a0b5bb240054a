// Package experiments regenerates every evaluation artifact of the paper —
// Table 1, the Lemma 2 case structure, the Theorem 3 bound curves, Figure 1
// (Algorithm 1's per-collective data movement), Figure 2 (optimal grids),
// the §5.2 exact-tightness check, the baseline-algorithm comparison, and
// the §6.2 limited-memory analysis — as self-contained functions returning
// renderable artifacts plus structured data that tests and benchmarks
// assert on. The cmd/paper binary and the repository-level benchmarks are
// thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
)

// Artifact is one regenerated table or figure.
type Artifact struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1-table1").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Text is the rendered terminal output (table or ASCII chart).
	Text string
	// CSV is an optional machine-readable rendition.
	CSV string
}

// String renders the artifact with its header.
func (a Artifact) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", a.ID, a.Title, a.Text)
}

// All runs every experiment at its default (paper) parameters and returns
// the artifacts in paper order. Simulation-backed experiments use the
// scaled dimensions documented in DESIGN.md so the whole suite runs in
// seconds.
func All() ([]Artifact, error) { return AllContext(context.Background()) }

// AllContext is All honoring cancellation: ctx is checked between
// experiments and threaded into the sweep-based ones, so a long run stops
// within one experiment step (or one sweep point) of ctx being done. The
// error is then ctx.Err().
func AllContext(ctx context.Context) ([]Artifact, error) {
	var out []Artifact
	steps := []func() (Artifact, error){
		func() (Artifact, error) { return Table1(), nil },
		func() (Artifact, error) { return Lemma2Cases(DefaultRectDims), nil },
		func() (Artifact, error) { return BoundCurves(DefaultRectDims, 1<<20), nil },
		func() (Artifact, error) { return Figure2(), nil },
		func() (Artifact, error) { return LimitedMemory(DefaultSquareN, DefaultMemoryWords), nil },
		func() (Artifact, error) { return Figure1(DefaultFig1N, 27) },
		func() (Artifact, error) { return TightnessContext(ctx) },
		func() (Artifact, error) { return AlgorithmComparisonContext(ctx, DefaultCompareN, DefaultCompareP) },
		func() (Artifact, error) { return Geometry() },
		func() (Artifact, error) { return CARMAComparison(), nil },
		func() (Artifact, error) { return Extension() },
		func() (Artifact, error) {
			return RuntimeModelContext(ctx, DefaultRectDims, DefaultRuntimeConfig, []int{1, 4, 16, 64, 512})
		},
		func() (Artifact, error) { return FastMatmul(4096, []int{1, 8, 64, 512, 4096}) },
		func() (Artifact, error) { return ModelRobustness() },
		func() (Artifact, error) { return CAPSExperiment(56) },
		func() (Artifact, error) { return MemoryTradeoff(DefaultRectDims, 512) },
		func() (Artifact, error) { return TopologySweepContext(ctx) },
		func() (Artifact, error) { return HBLPrograms() },
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := step()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
