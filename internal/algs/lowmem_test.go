package algs

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

func runLowMem(t *testing.T, n1, n2, n3, p, chunks int, opts Opts) *Result {
	t.Helper()
	run := func(a, b *matrix.Dense, pp int, o Opts) (*Result, error) {
		return Alg1LowMem(a, b, pp, chunks, o)
	}
	return verify(t, "Alg1LowMem", run, n1, n2, n3, p, opts)
}

func TestAlg1LowMemCorrectness(t *testing.T) {
	for _, c := range []struct{ n1, n2, n3, p, chunks int }{
		{16, 16, 16, 8, 1},
		{16, 16, 16, 8, 2},
		{16, 16, 16, 8, 4},
		{16, 16, 16, 8, 100}, // more chunks than the local extent
		{13, 11, 9, 6, 3},    // nothing divides
		{96, 24, 6, 36, 4},
	} {
		runLowMem(t, c.n1, c.n2, c.n3, c.p, c.chunks, bwOpts())
	}
}

func TestAlg1LowMemValidation(t *testing.T) {
	a := matrix.Random(8, 8, 1)
	b := matrix.Random(8, 8, 2)
	if _, err := Alg1LowMem(a, b, 4, 0, bwOpts()); err == nil {
		t.Fatal("expected chunks validation error")
	}
	opts := bwOpts()
	opts.Grid = grid.Grid{P1: 2, P2: 2, P3: 2}
	if _, err := Alg1LowMem(a, b, 9, 2, opts); err == nil {
		t.Fatal("expected grid size error")
	}
}

// TestAlg1LowMemSameBandwidthMoreLatencyLessMemory is the §6.2 adaptation
// claim, measured: chunking leaves the words moved unchanged, multiplies
// the message count, and divides the gathered-panel memory.
func TestAlg1LowMemSameBandwidthMoreLatencyLessMemory(t *testing.T) {
	d := core.NewDims(768, 192, 48)
	p := 36
	g, err := grid.CaseGrid(d, p) // 12x3x1: 2D, panel memory dominates
	if err != nil {
		t.Fatal(err)
	}
	opts := bwOpts()
	opts.Grid = g
	base := runLowMem(t, 768, 192, 48, p, 1, opts)
	chunked := runLowMem(t, 768, 192, 48, p, 8, opts)

	// Bandwidth identical, and exactly the Theorem 3 bound.
	bound := core.LowerBound(d, p)
	if math.Abs(base.CommCost()-bound) > 1e-9 || math.Abs(chunked.CommCost()-bound) > 1e-9 {
		t.Fatalf("bandwidth changed: base %v chunked %v bound %v", base.CommCost(), chunked.CommCost(), bound)
	}
	// Latency: message count grows with the chunk factor.
	if chunked.Stats.TotalMessages <= 4*base.Stats.TotalMessages {
		t.Fatalf("messages: base %d chunked %d — expected ≈8x", base.Stats.TotalMessages, chunked.Stats.TotalMessages)
	}
	// Peak memory shrinks.
	if chunked.Stats.MaxPeakMemory >= base.Stats.MaxPeakMemory {
		t.Fatalf("memory: base %v chunked %v — expected reduction", base.Stats.MaxPeakMemory, chunked.Stats.MaxPeakMemory)
	}
}

// TestAlg1LowMem3DResidualMemory documents the §6.2 caveat: on a 3D grid
// the C contribution buffer (the eq.(3) mk/(p1p3) term) does not shrink
// with chunking — reducing it would necessarily raise bandwidth.
func TestAlg1LowMem3DResidualMemory(t *testing.T) {
	d := core.NewDims(768, 192, 48)
	p := 512
	g, err := grid.CaseGrid(d, p) // 32x8x2
	if err != nil {
		t.Fatal(err)
	}
	opts := bwOpts()
	opts.Grid = g
	res := runLowMem(t, 768, 192, 48, p, 16, opts)
	dBuffer := d.SizeC() / float64(g.P1*g.P3)
	if res.Stats.MaxPeakMemory < dBuffer {
		t.Fatalf("peak %v below the irreducible C buffer %v", res.Stats.MaxPeakMemory, dBuffer)
	}
}

// TestAlg1LowMemOneChunkMovesWhatAlg1Moves: with one chunk the strip is the
// whole panel, so every rank sends and receives the same words in the same
// messages under the same phases, computes the same flops, ends at the same
// clock, and C comes out bit-identical. Peak memory is left out: Alg1 never
// shrinks its count, while LowMem frees each strip after multiplying it.
func TestAlg1LowMemOneChunkMovesWhatAlg1Moves(t *testing.T) {
	shapes := []struct{ n1, n2, n3, p int }{
		{16, 16, 16, 8}, // divides
		{64, 32, 48, 16},
		{13, 11, 9, 6}, // nothing divides
		{13, 11, 9, 8},
		{96, 24, 6, 36},
	}
	cfg := machine.Config{Alpha: 2, Beta: 0.5, Gamma: 0.125}
	for _, fam := range []struct {
		name string
		alg  collective.Algorithm
	}{{"auto", collective.Auto}, {"ring", collective.Ring}, {"recursive", collective.Recursive}} {
		for _, s := range shapes {
			if fam.alg == collective.Recursive && s.p&(s.p-1) != 0 {
				continue // recursive collectives need power-of-two fibers
			}
			t.Run(fmt.Sprintf("%s/%dx%dx%d/p=%d", fam.name, s.n1, s.n2, s.n3, s.p), func(t *testing.T) {
				a, b := matrix.Random(s.n1, s.n2, 5), matrix.Random(s.n2, s.n3, 6)
				opts := Opts{Config: cfg, Collective: fam.alg}
				want, err := Alg1(a, b, s.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Alg1LowMem(a, b, s.p, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.C.MaxAbsDiff(want.C); d != 0 {
					t.Fatalf("C differs from Alg1's by %g", d)
				}
				for r := range want.Stats.Ranks {
					w, g := want.Stats.Ranks[r], got.Stats.Ranks[r]
					w.PeakMemory, g.PeakMemory = 0, 0
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("rank %d: LowMem %+v, Alg1 %+v", r, g, w)
					}
				}
			})
		}
	}
}
