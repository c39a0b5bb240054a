package machine_test

import (
	"testing"

	"repro/internal/algs"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// TestAlg1RankHoldsOnlyItsBlocks runs Algorithm 1 at 64³ on an 8×8×8 grid
// from a drained arena. The arena never frees a buffer, so after the run
// it holds about what the ranks held at once at their peak, in-flight
// messages included. A rank that holds only the data Algorithm 1 gives it
// (its share of A and B packed into the panels it gathers, then its D
// block, 64 words each here) stays under three block buffers; packing
// whole blocks beside the gathered panels, and reducing through extra
// scratch, held about four.
func TestAlg1RankHoldsOnlyItsBlocks(t *testing.T) {
	const n, p = 64, 512
	const blockBytes = 8 * (n / 8) * (n / 8)
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	machine.DrainArena()
	res, err := algs.Alg1(a, b, p, algs.Opts{Config: machine.BandwidthOnly()})
	if err != nil {
		t.Fatal(err)
	}
	if want := (grid.Grid{P1: 8, P2: 8, P3: 8}); res.Grid != want {
		t.Fatalf("Alg1 ran on grid %v, want %v", res.Grid, want)
	}
	got := machine.ArenaBytes()
	perRank := float64(got) / (blockBytes * p)
	t.Logf("the arena holds %d bytes, %.2f block buffers per rank", got, perRank)
	if perRank > 3 {
		t.Errorf("after Alg1 on %d³ at P=%d the arena holds %.2f block buffers per rank, want at most 3", n, p, perRank)
	}
}
