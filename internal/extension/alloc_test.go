package extension

import (
	"testing"

	"repro/internal/machine"
)

// TestRunAllocsPerRank pins what a whole Run allocates per rank once the
// arena is warm, about 5.6 objects at d = 3 and d = 4: the rank's task
// goroutine and channel, its phase entries, its int slab and its chunk of
// the output, plus the run's share of the input arrays it draws and the
// output it assembles.
// Each rank packs only its share of each input block into a pooled buffer,
// gathers and reduces in place, and reads its tables from the slab; a
// packed copy of a block, a fresh gather output or member list, or an
// allocating reduction would show here, the first three once per array.
func TestRunAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	for _, c := range []struct{ dims, grid []int }{
		{[]int{64, 64, 64}, []int{4, 4, 4}},
		{[]int{16, 16, 16, 16}, []int{2, 2, 4, 4}},
	} {
		pr, err := NewProblem(c.dims...)
		if err != nil {
			t.Fatal(err)
		}
		g := Grid{Dims: c.grid}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(pr, g, 1, machine.BandwidthOnly()); err != nil {
				t.Fatal(err)
			}
		})
		perRank := allocs / float64(g.Size())
		t.Logf("%v on %v: %.2f objects per rank", c.dims, g, perRank)
		if perRank > 10 {
			t.Errorf("Run of %v on %v allocates %.1f objects per rank, want <= 10", c.dims, g, perRank)
		}
	}
}
