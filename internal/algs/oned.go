package algs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// OneD runs the classical block-row algorithm: processor i owns a band of
// rows of A and computes the same band of C after All-Gathering the whole
// of B. Its communication cost is (1 − 1/P)·n2·n3 words per processor,
// which matches Theorem 3's bound exactly when the problem is in Case 1
// with n1 the largest dimension, and is suboptimal otherwise — the
// comparison experiments use it as the 1D baseline.
func OneD(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b)
	if err != nil {
		return nil, err
	}
	if p > d.N1 {
		return nil, fmt.Errorf("algs: OneD needs P ≤ n1, got P=%d n1=%d: %w", p, d.N1, core.ErrBadProcessorCount)
	}

	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	packedB := b.Pack()
	countsB := matrix.PartSizes(make([]int, p), len(packedB))
	return run("OneD", d, grid.Grid{P1: p, P2: 1, P3: 1}, opts, func(r *machine.Rank) []float64 {
		me := r.ID()
		// Initial distribution: row band of A (and later C) is local; B is
		// spread evenly across all processors.
		r0, h := blockRange(d.N1, p, me)
		aBand := a.View(r0, 0, h, d.N2).Clone()
		loB, hiB := shareRange(len(packedB), p, me)
		myB := packedB[loB:hiB]
		r.GrowMemory(float64(aBand.Size() + len(myB)))

		r.SetPhase(PhaseGatherB)
		var grp collective.Group
		grp.Init(r, members, 1, opts.Collective)
		fullB := grp.AllGatherVInto(myB, countsB, r.GetBuffer(len(packedB)))
		grp.Release()
		r.SetPhase("")
		r.GrowMemory(float64(len(fullB) - len(myB)))
		bMat := matrix.New(d.N2, d.N3)
		bMat.Unpack(fullB)
		r.PutBuffer(fullB)

		cBand := localMul(r, aBand, bMat, opts.Workers)
		r.GrowMemory(float64(cBand.Size()))
		return cBand.Pack()
	})
}
