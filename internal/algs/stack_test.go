package algs

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/matrix"
)

// TestRankStacksStayUnder4KiB holds every rank body to the 4 KiB goroutine
// stack a large run depends on. Each rank runs on a goroutine of its own,
// so a rank whose deepest call chain passes 4 KiB grows every stack to
// 8 KiB: at 256³ on P = 16384 a frame 32 bytes too large once took
// Algorithm 1 from 64 to 128 MiB of stacks and its run time up by a
// quarter. The test runs every registry algorithm at P = 4096 while it
// samples the heap's stack bytes about every 100 µs, and fails when the
// peak over P reads past 6 KiB: stacks that stay at 4 KiB read about 4 KiB
// per rank, and stacks that doubled read about 8 KiB.
func TestRankStacksStayUnder4KiB(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation deepens every frame")
	}
	const p = 4096
	square := []*matrix.Dense{matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)}
	tall := []*matrix.Dense{matrix.Random(p, 4, 1), matrix.Random(4, 4, 2)} // OneD needs n1 ≥ P
	for _, e := range Registry() {
		in := square
		if e.Name == "OneD" {
			in = tall
		}
		peak, err := peakStackBytes(func() error {
			_, err := e.Run(in[0], in[1], p, bwOpts())
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		perRank := float64(peak) / p
		t.Logf("%s: %.0f B of stack per rank", e.Name, perRank)
		if perRank > 6<<10 {
			t.Errorf("%s at P=%d peaks at %.0f B of stack per rank, want <= 6 KiB: some rank's stack grew past 4 KiB", e.Name, p, perRank)
		}
	}
}

// peakStackBytes runs f and returns the most heap memory held for stacks
// while it ran, sampled about every 100 µs, with f's error. It collects
// garbage first, so the stacks of goroutines that ended before f do not
// count.
func peakStackBytes(f func() error) (uint64, error) {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/stacks:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	done := make(chan struct{})
	peaks := make(chan uint64)
	go func() {
		peak := read()
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peaks <- max(peak, read())
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	err := f()
	close(done)
	return <-peaks, err
}
