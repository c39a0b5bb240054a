package collective

import (
	"testing"

	"repro/internal/machine"
)

// collectiveRun returns a closure running a fresh 8-rank world in which
// every rank performs iters AllGatherVInto + ReduceScatterVInto rounds with
// caller-held pooled buffers and a stack-allocated Group — the
// steady-state pattern of the 3D algorithms.
func collectiveRun(t *testing.T, iters int) func() {
	const p = 8
	const blockLen = 64
	members := make([]int, p)
	counts := make([]int, p)
	for i := range members {
		members[i] = i
		counts[i] = blockLen
	}
	return func() {
		w := newWorld(t, p)
		err := w.Run(func(r *machine.Rank) {
			var g Group
			g.Init(r, members, 1, Ring)
			my := r.GetBuffer(blockLen)
			gathered := r.GetBuffer(p * blockLen)
			scratch := r.GetBuffer(p * blockLen)
			chunk := r.GetBuffer(blockLen)
			for i := range my {
				my[i] = float64(r.ID()*1000 + i)
			}
			for i := 0; i < iters; i++ {
				g.AllGatherVInto(my, counts, gathered)
				g.ReduceScatterVInto(gathered, counts, chunk, scratch)
			}
			r.PutBuffer(my)
			r.PutBuffer(gathered)
			r.PutBuffer(scratch)
			r.PutBuffer(chunk)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectiveSteadyStateAllocs pins the allocation cost of the
// collective hot path: with caller-provided output and scratch buffers,
// AllGatherVInto and ReduceScatterVInto must not allocate per call — the
// ring loops receive into pooled network buffers that are recycled
// immediately, and block offsets are walked rather than stored.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	base := testing.AllocsPerRun(10, collectiveRun(t, 2))
	heavy := testing.AllocsPerRun(10, collectiveRun(t, 18))
	perIter := (heavy - base) / 16
	if perIter > 0.1 {
		t.Errorf("steady-state AllGatherVInto+ReduceScatterVInto allocates %.3f allocs/round (base run %.1f, heavy run %.1f); want ~0", perIter, base, heavy)
	}
	// Absolute ceiling for the whole 8-rank run: world construction plus
	// per-rank group setup. Each round moves 2·(p-1)·64 words through 14
	// messages per rank; pre-pooling those cost hundreds of allocs.
	if heavy > 400 {
		t.Errorf("8-rank world with 18 collective rounds costs %.1f allocs, want <= 400", heavy)
	}
}
