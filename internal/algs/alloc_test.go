package algs

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/matrix"
)

// TestAlg1AllocsPerRank pins what a whole Algorithm 1 run allocates per
// rank once the arena is warm, about 4.3 objects: its task's goroutine and
// channel, its phase entries, and its chunk of the result. Messages,
// collective communicators and phase accounting add nothing per message,
// and the member lists and share counts are tables built once per run.
// One message map per rank would show here, as would per-rank int scratch
// or a cache that stopped recycling.
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
	if perRank := allocs / p; perRank > 5 {
		t.Errorf("Alg1 on %d³ at P=%d allocates %.1f objects per rank, want <= 5", n, p, perRank)
	}
}

// TestAlg1LowMemAllocsPerRank holds the §6.2 adaptation to Algorithm 1's
// allocation profile: each strip is packed into a pooled gather output and
// gathered in place, multiplied into a pooled D on stack matrix headers,
// and D is reduced in place, so more chunks add messages but no objects.
// Cloned blocks, fresh groups or member lists, or unpacked strips would
// show here, the last once per chunk.
func TestAlg1LowMemAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	const n, p = 64, 512
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	for _, chunks := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Alg1LowMem(a, b, p, chunks, Opts{Config: machine.BandwidthOnly()}); err != nil {
				t.Fatal(err)
			}
		})
		if perRank := allocs / p; perRank > 7 {
			t.Errorf("Alg1LowMem with %d chunks on %d³ at P=%d allocates %.1f objects per rank, want <= 7", chunks, n, p, perRank)
		}
	}
}
