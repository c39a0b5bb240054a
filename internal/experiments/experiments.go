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
	"slices"
	"strings"
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

// entry is one artifact of the paper: the name cmd/paper's -only flag
// selects it by, whether the default run prints it, and how to build it at
// the paper's parameters.
type entry struct {
	name      string
	inDefault bool
	build     func(context.Context) (Artifact, error)
}

// entries lists every artifact in the order the default run prints them,
// each with its parameters. E1 and E1b share the name table1; E18 runs only
// when named, since it takes tens of seconds where the rest take
// milliseconds. Simulation-backed experiments use the scaled dimensions
// documented in DESIGN.md, so the default run takes seconds.
var entries = []entry{
	{"table1", true, func(context.Context) (Artifact, error) { return Table1(), nil }},
	{"lemma2", true, func(context.Context) (Artifact, error) { return Lemma2Cases(DefaultRectDims), nil }},
	{"bounds", true, func(context.Context) (Artifact, error) { return BoundCurves(DefaultRectDims, 1<<20), nil }},
	{"fig2", true, func(context.Context) (Artifact, error) { return Figure2(), nil }},
	{"memory", true, func(context.Context) (Artifact, error) {
		return LimitedMemory(DefaultSquareN, DefaultMemoryWords), nil
	}},
	{"fig1", true, func(context.Context) (Artifact, error) { return Figure1(DefaultFig1N, 27) }},
	{"tight", true, Tightness},
	{"algs", true, func(ctx context.Context) (Artifact, error) {
		return AlgorithmComparison(ctx, DefaultCompareN, DefaultCompareP)
	}},
	{"geometry", true, func(context.Context) (Artifact, error) { return Geometry() }},
	{"carma", true, func(context.Context) (Artifact, error) { return CARMAComparison(), nil }},
	{"extension", true, func(context.Context) (Artifact, error) { return Extension() }},
	{"runtime", true, func(ctx context.Context) (Artifact, error) {
		return RuntimeModel(ctx, DefaultRectDims, DefaultRuntimeConfig, []int{1, 4, 16, 64, 512})
	}},
	{"fastmm", true, func(context.Context) (Artifact, error) { return FastMatmul(4096, []int{1, 8, 64, 512, 4096}) }},
	{"models", true, func(context.Context) (Artifact, error) { return ModelRobustness() }},
	{"caps", true, func(context.Context) (Artifact, error) { return CAPSExperiment(56) }},
	{"memtradeoff", true, func(context.Context) (Artifact, error) { return MemoryTradeoff(DefaultRectDims, 512) }},
	{"topology", true, TopologySweep},
	{"hbl", true, func(context.Context) (Artifact, error) { return HBLPrograms() }},
	{"table1", true, func(context.Context) (Artifact, error) {
		return Table1Numeric(PaperRectDims, []int{1, 3, 4, 16, 36, 64, 256, 512, 4096}), nil
	}},
	{"scaling", true, func(ctx context.Context) (Artifact, error) {
		return StrongScaling(ctx, DefaultRectDims, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	}},
	{"fabricscale", false, func(ctx context.Context) (Artifact, error) { return FabricScale(ctx, 65536) }},
}

// Names returns the artifact names in print order, each once.
func Names() []string {
	var out []string
	for _, e := range entries {
		if !slices.Contains(out, e.name) {
			out = append(out, e.name)
		}
	}
	return out
}

// All builds the artifacts of the default run in print order. ctx is
// checked between experiments and threaded into the sweep-based ones, so a
// long run stops within one experiment step (or one sweep point) of ctx
// being done; the error is then ctx.Err().
func All(ctx context.Context) ([]Artifact, error) {
	return build(ctx, func(e entry) bool { return e.inDefault })
}

// Named builds the artifacts called name in print order, honoring ctx as
// All does. A name Names does not list is an error.
func Named(ctx context.Context, name string) ([]Artifact, error) {
	if !slices.Contains(Names(), name) {
		return nil, fmt.Errorf("unknown artifact %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return build(ctx, func(e entry) bool { return e.name == name })
}

// build builds the entries keep selects, in list order.
func build(ctx context.Context, keep func(entry) bool) ([]Artifact, error) {
	var out []Artifact
	for _, e := range entries {
		if !keep(e) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := e.build(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
