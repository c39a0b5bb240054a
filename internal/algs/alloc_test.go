package algs

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/matrix"
)

// allocRun is one algorithm run whose objects per rank an allocation test
// holds to maxObjectsPerRank.
type allocRun struct {
	name string
	run  Runner
	p    int
}

// maxObjectsPerRank bounds what a registry algorithm allocates per rank in
// a whole run at 64³ with a warm arena.
const maxObjectsPerRank = 5

// checkAllocsPerRank runs each case as a subtest at 64³ with a warm arena
// and fails any whose objects per rank exceed maxObjectsPerRank.
func checkAllocsPerRank(t *testing.T, cases []allocRun) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	const n = 64
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/P=%d", c.name, c.p), func(t *testing.T) {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := c.run(a, b, c.p, Opts{Config: machine.BandwidthOnly()}); err != nil {
					t.Fatal(err)
				}
			})
			perRank := allocs / float64(c.p)
			t.Logf("%.2f objects per rank", perRank)
			if perRank > maxObjectsPerRank {
				t.Errorf("%s on %d³ at P=%d allocates %.1f objects per rank, want <= %d", c.name, n, c.p, perRank, maxObjectsPerRank)
			}
		})
	}
}

// TestAlg1AllocsPerRank pins what a whole Algorithm 1 run allocates per
// rank once the arena is warm, about 4.2 objects at P = 512 and 4.6 at
// P = 64: its task's goroutine and channel, its phase entries, and its
// chunk of the result.
// Messages, collective communicators and phase accounting add nothing per
// message, and the member lists and share counts are tables built once per
// run. One message map per rank would show here, as would per-rank int
// scratch or a cache that stopped recycling.
func TestAlg1AllocsPerRank(t *testing.T) {
	checkAllocsPerRank(t, []allocRun{
		{"Alg1", Alg1, 64},
		{"Alg1", Alg1, 512},
	})
}

// TestAlg1LowMemAllocsPerRank holds the §6.2 adaptation to Algorithm 1's
// allocation profile: each strip is packed into a pooled gather output and
// gathered in place, multiplied into a pooled D on stack matrix headers,
// and D is reduced in place, so more chunks add messages but no objects.
// Cloned blocks, fresh groups or member lists, or unpacked strips would
// show here, the last once per chunk.
func TestAlg1LowMemAllocsPerRank(t *testing.T) {
	var cases []allocRun
	for _, p := range []int{64, 512} {
		for _, chunks := range []int{1, 4} {
			run := func(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
				return Alg1LowMem(a, b, p, chunks, opts)
			}
			cases = append(cases, allocRun{fmt.Sprintf("Alg1LowMem/chunks=%d", chunks), run, p})
		}
	}
	checkAllocsPerRank(t, cases)
}

// TestAllocsPerRank holds every other registry algorithm to the same
// profile at 64³ on P = 64 and on P = 512 where it runs. Every rank body
// reads its blocks as views, packs what it sends into pooled buffers,
// multiplies them in place on stack matrix headers and runs its
// collectives in place over tables built once per run, and C is
// assembled by copying each chunk straight into its rows, so what stays is
// its task's goroutine and channel, its phase entries and its chunk of the
// result: about 3.4 to 4.6 objects. A cloned block, an unpacked panel, a
// fresh member list, an allocating collective or a packed copy of each
// block of C would show here, the collective once per step.
func TestAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	a, b := matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)
	var cases []allocRun
	for _, p := range []int{64, 512} {
		for _, e := range Registry() {
			switch e.Name {
			case "Alg1", "Alg1LowMem":
				continue // TestAlg1AllocsPerRank and TestAlg1LowMemAllocsPerRank
			}
			if _, err := e.Run(a, b, p, bwOpts()); err != nil {
				continue // the algorithm refuses this P
			}
			cases = append(cases, allocRun{e.Name, e.Run, p})
		}
	}
	checkAllocsPerRank(t, cases)
}
