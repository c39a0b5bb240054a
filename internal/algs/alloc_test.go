package algs

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/matrix"
)

// TestAlg1AllocsPerRank pins what a whole Algorithm 1 run allocates per
// rank once the arena is warm, about 7.4 objects: its two per-phase stat
// maps, its task's goroutine and channel, and its block of the result.
// Messages, collective scratch and phase accounting add nothing per
// message. One message map per rank would show here (21.4 per rank), as
// would a cache that stopped recycling.
func TestAlg1AllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	const n, p = 64, 512
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Alg1(a, b, p, Opts{Config: machine.BandwidthOnly()}); err != nil {
			t.Fatal(err)
		}
	})
	if perRank := allocs / p; perRank > 10 {
		t.Errorf("Alg1 on %d³ at P=%d allocates %.1f objects per rank, want <= 10", n, p, perRank)
	}
}
