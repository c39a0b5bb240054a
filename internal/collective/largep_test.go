package collective

import (
	"testing"
)

// The large-P tests exercise the collectives at P=257 — a prime, so every
// power-of-two shortcut is off the table — which is far beyond the group
// sizes the rest of the suite uses and large enough that the sharded
// scheduler's targeted wakeups, not the old broadcast storm, carry the run.
// Under -race they double as a concurrency audit of the engine at scale.

const largeP = 257

func TestAllGatherLargeNonPowerOfTwo(t *testing.T) {
	const words = 2
	res, stats := runAll(t, largeP, Ring, func(g *Group) []float64 {
		return g.AllGather(seqBlock(g.me, words))
	})
	for r := 0; r < largeP; r++ {
		if len(res[r]) != words*largeP {
			t.Fatalf("rank %d result length %d, want %d", r, len(res[r]), words*largeP)
		}
		for i := 0; i < largeP; i++ {
			if res[r][words*i] != float64(i*1000) || res[r][words*i+1] != float64(i*1000+1) {
				t.Fatalf("rank %d block %d corrupted: %v", r, i, res[r][words*i:words*i+words])
			}
		}
	}
	// Ring all-gather: every rank receives exactly the other ranks' words.
	for r, rs := range stats.Ranks {
		if rs.WordsRecv != float64((largeP-1)*words) {
			t.Fatalf("rank %d received %v words, want %d", r, rs.WordsRecv, (largeP-1)*words)
		}
	}
}

func TestReduceScatterLargeNonPowerOfTwo(t *testing.T) {
	res, _ := runAll(t, largeP, Ring, func(g *Group) []float64 {
		// Rank r contributes r to every element; block b of the reduction
		// is then sum(0..P-1) everywhere.
		data := make([]float64, largeP)
		for i := range data {
			data[i] = float64(g.me)
		}
		return g.ReduceScatter(data)
	})
	want := float64(largeP * (largeP - 1) / 2)
	for r := 0; r < largeP; r++ {
		if len(res[r]) != 1 {
			t.Fatalf("rank %d block length %d, want 1", r, len(res[r]))
		}
		if res[r][0] != want {
			t.Fatalf("rank %d reduced block = %v, want %v", r, res[r][0], want)
		}
	}
}
