// Package benchrec records performance to JSON so the perf trajectory is
// tracked across changes instead of living in scrollback. It owns the
// scheduler-stress SPMD body shared by the Go benchmarks and the
// repository benchmark (bench/), the million-rank counting smoke, the
// topology charge-oracle record (topo.go, measured through
// testing.Benchmark, which works outside `go test`), and the serving record
// cmd/loadgen writes (serving.go).
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
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
// run really happened.
func CountingRun(p int) (wall time.Duration, stats machine.WorldStats, err error) {
	w, err := machine.New(p, machine.BandwidthOnly())
	if err != nil {
		return 0, machine.WorldStats{}, err
	}
	start := time.Now()
	if err := w.Run(func(r *machine.Rank) {
		next := (r.ID() + 1) % p
		prev := (r.ID() + p - 1) % p
		buf := []float64{float64(r.ID())}
		scratch := make([]float64, 1)
		r.SendRecvInto(next, prev, 0, buf, scratch)
		r.Barrier()
		r.SendRecvInto(prev, next, 1, buf, scratch)
	}); err != nil {
		return 0, machine.WorldStats{}, err
	}
	return time.Since(start), w.Stats(), nil
}

// writeJSONFile writes v as indented JSON with a trailing newline, the
// common format of every BENCH_*.json the repo tracks.
func writeJSONFile(v any, path string) error {
	blob, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		return fmt.Errorf("benchrec: encoding record: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
