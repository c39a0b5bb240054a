// Package benchrec holds the simulator workloads that more than one
// measurement shares: ScalingBody and ScalingRounds, the scheduler-stress
// SPMD body of the root package's Go benchmarks and the repository
// benchmark (bench/), and CountingRun, the million-rank counting world
// behind cmd/benchrec's CI smoke.
package benchrec

import (
	"time"

	"repro/internal/machine"
)

// ScalingRounds is the fixed per-rank round count of the scaling body; it
// keeps msgs/op comparable across records.
const ScalingRounds = 16

// ScalingBody is the scheduler-stress SPMD body of the P-scaling
// benchmarks: rounds of small-message ring shifts plus a power-of-two
// butterfly exchange, so every rank repeatedly parks and wakes while many
// peers send concurrently. Payloads are tiny on purpose — the benchmark
// measures scheduling (lock contention, wakeups, resumption), not data
// movement.
func ScalingBody(p, rounds int) func(*machine.Rank) {
	return func(r *machine.Rank) {
		buf := r.GetBuffer(8)
		for i := range buf {
			buf[i] = float64(r.ID())
		}
		scratch := r.GetBuffer(8)
		for round := 0; round < rounds; round++ {
			next := (r.ID() + 1) % p
			prev := (r.ID() + p - 1) % p
			r.SendRecvInto(next, prev, round, buf, scratch)
			if peer := r.ID() ^ (1 << (round % 10)); peer < p && peer != r.ID() {
				r.SendRecvInto(peer, peer, rounds+round, buf, scratch)
			}
		}
		r.PutBuffer(buf)
		r.PutBuffer(scratch)
	}
}

// CountingRun simulates one BandwidthOnly counting world of p ranks — the
// P ≥ 10^6 regime — and returns wall time plus the stats that prove the
// run really happened. Rank r first trades one word with its mirror
// p−1−r, so every rank of the lower half parks until its partner in the
// upper half runs and about p/2 ranks are parked at once; the middle rank
// of an odd world has no mirror and sits that exchange out. A ring shift
// follows. The run moves 2p − (p mod 2) messages on a critical path of
// two words.
func CountingRun(p int) (wall time.Duration, stats machine.WorldStats, err error) {
	w, err := machine.New(p, machine.BandwidthOnly())
	if err != nil {
		return 0, machine.WorldStats{}, err
	}
	start := time.Now()
	if err := w.Run(func(r *machine.Rank) {
		buf := []float64{float64(r.ID())}
		scratch := make([]float64, 1)
		if mirror := p - 1 - r.ID(); mirror != r.ID() {
			r.SendRecvInto(mirror, mirror, 0, buf, scratch)
		}
		r.SendRecvInto((r.ID()+1)%p, (r.ID()+p-1)%p, 1, buf, scratch)
	}); err != nil {
		return 0, machine.WorldStats{}, err
	}
	return time.Since(start), w.Stats(), nil
}
