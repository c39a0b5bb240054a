package machine

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// testWorld creates a world on a scheduler pool of the given width (below
// one: GOMAXPROCS), failing the test on construction errors. Pinning the
// width exercises the multi-worker paths on any host.
func testWorld(t *testing.T, p int, cfg Config, workers int) *World {
	t.Helper()
	w, err := newWorld(p, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidatesRankCount(t *testing.T) {
	if _, err := New(0, BandwidthOnly()); !errors.Is(err, core.ErrBadProcessorCount) {
		t.Errorf("New(0) err = %v, want ErrBadProcessorCount", err)
	}
	if _, err := New(MaxRanks+1, BandwidthOnly()); !errors.Is(err, core.ErrTooManyRanks) {
		t.Errorf("New(MaxRanks+1) err = %v, want ErrTooManyRanks", err)
	}
}

// TestNewValidatesCosts: a negative or non-finite α, β or γ is refused
// with ErrBadOpts, since the model charges only non-negative times; zero
// costs stay valid.
func TestNewValidatesCosts(t *testing.T) {
	for _, cfg := range []Config{
		{Alpha: -5}, {Beta: -1}, {Gamma: -1e-300},
		{Beta: math.NaN()}, {Beta: math.Inf(1)}, {Alpha: math.Inf(-1)},
	} {
		if _, err := New(4, cfg); !errors.Is(err, core.ErrBadOpts) {
			t.Errorf("New(4, %+v) err = %v, want ErrBadOpts", cfg, err)
		}
	}
	if _, err := New(4, Config{}); err != nil {
		t.Errorf("New(4, zero costs) err = %v", err)
	}
}

// TestIdleWorkerDoesNotSpin is the regression test for a busy-spin in the
// worker pool. A verifier that stood down for another shard's pending
// wakeup used to re-park and re-verify in a loop until that shard's worker
// got a CPU, so with every P busy each cross-shard handoff cost about one
// preemption slice (~10 ms). One P, two workers and a cross-shard
// ping-pong put every round trip on that path: 50 round trips took over
// two seconds with the spin and take well under a millisecond without it.
func TestIdleWorkerDoesNotSpin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 50
	w := testWorld(t, 2, BandwidthOnly(), 2)
	start := time.Now()
	err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Send(peer, i, []float64{1})
				r.PutBuffer(r.Recv(peer, i))
			} else {
				r.PutBuffer(r.Recv(peer, i))
				r.Send(peer, i, []float64{1})
			}
		}
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().TotalMessages; got != 2*rounds {
		t.Errorf("total messages = %v, want %d", got, 2*rounds)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("%d cross-shard round trips on one P took %v, want < 200ms: idle workers are spinning", rounds, elapsed)
	}
}

// TestEventEngineStatsBitIdentical runs a body exercising every Rank
// operation — tagged sends consumed out of order, SendRecv exchanges,
// phases, compute, memory accounting — and requires the full WorldStats to
// match, bit for bit, the stats pinned below, on a one-worker and a
// multi-worker pool. They were captured by running this body on the
// scheduler before Barrier was removed, so they also pin that the removal
// changed nothing else.
func TestEventEngineStatsBitIdentical(t *testing.T) {
	const p = 12
	body := func(r *Rank) {
		me := r.ID()
		next, prev := (me+1)%p, (me+p-1)%p
		r.SetPhase("shift")
		for step := 0; step < 4; step++ {
			r.Send(next, step, make([]float64, 3+me%3))
			r.Recv(prev, step)
			r.Compute(float64(10 * (1 + me%2)))
		}
		r.SetPhase("exchange")
		r.GrowMemory(float64(8 * (me + 1)))
		got := r.SendRecv(next, prev, 90, make([]float64, 5))
		r.PutBuffer(got)
		r.ShrinkMemory(float64(8 * (me + 1)))
		r.SetPhase("")
		// Out-of-order tag consumption.
		r.Send(next, 201, []float64{1})
		r.Send(next, 202, []float64{2, 2})
		if w := r.Recv(prev, 202); len(w) != 2 {
			t.Errorf("rank %d tag 202 len %d", me, len(w))
		}
		r.Recv(prev, 201)
	}
	// Rank me sends 4 shifts of 3+me%3 words, one 5-word exchange, and 3
	// words of tagged messages; it receives its predecessor's shifts.
	rank := func(sent, recv, flops, peak, clock, shiftRecv, shiftSent float64) RankStats {
		return RankStats{
			WordsSent: sent, WordsRecv: recv, MsgsSent: 7, MsgsRecv: 7,
			Flops: flops, PeakMemory: peak, FinalClock: clock,
			Phases: []PhaseWords{
				{Phase: "shift", Sent: shiftSent, Recv: shiftRecv, HasSent: true, HasRecv: true},
				{Phase: "exchange", Sent: 5, Recv: 5, HasSent: true, HasRecv: true},
			},
		}
	}
	want := WorldStats{
		Ranks: []RankStats{
			rank(20, 28, 40, 8, 38, 20, 12),
			rank(24, 20, 80, 16, 38, 12, 16),
			rank(28, 24, 40, 24, 36.75, 16, 20),
			rank(20, 28, 80, 32, 36, 20, 12),
			rank(24, 20, 40, 40, 35.25, 12, 16),
			rank(28, 24, 80, 48, 38, 16, 20),
			rank(20, 28, 40, 56, 38, 20, 12),
			rank(24, 20, 80, 64, 38, 12, 16),
			rank(28, 24, 40, 72, 36.75, 16, 20),
			rank(20, 28, 80, 80, 36, 20, 12),
			rank(24, 20, 40, 88, 35.25, 12, 16),
			rank(28, 24, 80, 96, 38, 16, 20),
		},
		CriticalPath:   38,
		TotalWordsSent: 288,
		TotalMessages:  84,
		MaxWordsRecv:   28,
		MaxWordsSent:   28,
		MaxPeakMemory:  96,
	}
	for _, workers := range []int{1, 4} {
		w := testWorld(t, p, Config{Alpha: 2, Beta: 0.5, Gamma: 0.125}, workers)
		if err := w.Run(body); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := w.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: WorldStats diverge from the pinned reference:\ngot:  %+v\nwant: %+v", workers, got, want)
		}
	}
}

// TestEventEngineDeadlockParity drives the deadlock suites and requires
// the exact diagnostics pinned below: the verdict from the shared message
// formatter, reported by the lowest panicking rank, on a one-worker and a
// multi-worker pool.
func TestEventEngineDeadlockParity(t *testing.T) {
	cases := []struct {
		name string
		p    int
		body func(*Rank)
		want string
	}{
		{"all-recv", 3, func(r *Rank) { r.Recv((r.ID()+1)%3, 0) },
			"rank 0: machine: aborted: deadlock: all 3 ranks blocked in Recv with 0 undeliverable messages in flight"},
		{"undeliverable-inflight", 2, func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 5, []float64{1})
				return
			}
			r.Recv(0, 6)
		}, "rank 1: machine: aborted: deadlock: 1 ranks blocked in Recv, 1 finished, with 1 undeliverable messages in flight"},
		{"mixed", 4, func(r *Rank) {
			if r.ID() < 2 {
				return
			}
			r.Recv(0, 9)
		}, "rank 2: machine: aborted: deadlock: 2 ranks blocked in Recv, 2 finished, with 0 undeliverable messages in flight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				err := testWorld(t, tc.p, BandwidthOnly(), workers).Run(tc.body)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("workers=%d: diagnostic\ngot:  %v\nwant: %s", workers, err, tc.want)
				}
			}
		})
	}
}

// TestEventEngineWorkerPoolStress forces a multi-worker pool (the default
// on a single-CPU host is one worker, which would serialize everything)
// and floods it with cross-shard traffic and out-of-order tag consumption.
// Run under -race in CI, this is the test that exercises the scheduler's
// cross-worker handoffs: senders on one shard requeueing receivers pinned
// to another, and the parked-counter quiescence protocol.
func TestEventEngineWorkerPoolStress(t *testing.T) {
	const (
		p      = 32
		rounds = 6
	)
	for _, workers := range []int{2, 4, 7} {
		w := testWorld(t, p, BandwidthOnly(), workers)
		err := w.Run(func(r *Rank) {
			me := r.ID()
			for round := 0; round < rounds; round++ {
				for d := 1; d <= 3; d++ {
					r.Send((me+d)%p, round*10+d, []float64{float64(me)})
				}
				for d := 3; d >= 1; d-- { // reverse of send order
					got := r.Recv((me+p-d)%p, round*10+d)
					if got[0] != float64((me+p-d)%p) {
						t.Errorf("rank %d round %d d %d: got %v", me, round, d, got[0])
					}
					r.PutBuffer(got)
				}
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := w.Stats().TotalMessages; got != p*rounds*3 {
			t.Errorf("workers=%d: total messages = %v, want %d", workers, got, p*rounds*3)
		}
	}
}

// TestEventEngineDeadlockUnderManyWorkers verifies quiescence detection
// with a pool wider than one: the last parking worker must verify and
// abort the world even when the blocked tasks span several shards.
func TestEventEngineDeadlockUnderManyWorkers(t *testing.T) {
	w := testWorld(t, 16, BandwidthOnly(), 4)
	err := w.Run(func(r *Rank) {
		r.Recv((r.ID()+1)%16, 0) // nobody ever sends
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

// TestEventEngineLargeWorldCounting is the in-package scale smoke: a
// BandwidthOnly ring-counting run at P = 2^17. CI drives the full P=10^6
// version through cmd/benchrec; this keeps a smaller variant in `go test`.
func TestEventEngineLargeWorldCounting(t *testing.T) {
	if testing.Short() {
		t.Skip("large-world smoke skipped in -short mode")
	}
	const p = 1 << 17 // 131072 ranks
	w := NewWorld(p, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		me := r.ID()
		r.Send((me+1)%p, 0, []float64{float64(me)})
		got := r.Recv((me+p-1)%p, 0)
		r.PutBuffer(got)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.TotalMessages != p {
		t.Errorf("total messages = %v, want %d", s.TotalMessages, p)
	}
	if s.TotalWordsSent != p {
		t.Errorf("total words = %v, want %d", s.TotalWordsSent, p)
	}
}

// TestFanInScales gathers one word from every rank of a P = 65536 world at
// rank 0, which receives in descending source order, so nearly every
// sender's message is queued before it is asked for. Finding a queued
// message must not scan the receiver's other pending messages: one list
// per receiver made this run quadratic (6.6–11 s); keyed by (destination,
// source) it takes about 0.13 s.
func TestFanInScales(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large-world timing skipped in -short mode and under -race")
	}
	const p = 1 << 16
	w := NewWorld(p, BandwidthOnly())
	start := time.Now()
	err := w.Run(func(r *Rank) {
		if r.ID() != 0 {
			r.Send(0, 0, []float64{float64(r.ID())})
			return
		}
		for src := p - 1; src > 0; src-- {
			if got := r.Recv(src, 0); got[0] != float64(src) {
				t.Errorf("message from %d carries %v", src, got[0])
			}
		}
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Ranks[0].MsgsRecv; got != p-1 {
		t.Errorf("rank 0 received %d messages, want %d", got, p-1)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("P=%d fan-in took %v, want < 2s", p, elapsed)
	}
}

// TestConcurrentWorldsShareShardCaches runs many worlds at once. Their
// shards share the arena's shard caches by index, so buffers and message
// headers pass between worlds through those caches and the process-wide
// tier. Every world must still produce exactly the stats
// of one serial run. Under -race this is the test that checks the caches'
// locking.
func TestConcurrentWorldsShareShardCaches(t *testing.T) {
	const (
		p          = 256
		goroutines = 8
		worlds     = 20
	)
	cfg := Config{Alpha: 3, Beta: 0.5, Gamma: 0.25}
	body := func(r *Rank) {
		me := r.ID()
		r.SetPhase("ring")
		out := r.GetBuffer(me%5 + 1)
		for i := range out {
			out[i] = float64(me)
		}
		r.Send((me+1)%p, 0, out)
		r.PutBuffer(out)
		from := (me + p - 1) % p
		got := r.Recv(from, 0)
		if len(got) != from%5+1 || slices.ContainsFunc(got, func(v float64) bool { return v != float64(from) }) {
			t.Errorf("rank %d: ring message from %d is %v", me, from, got)
		}
		r.PutBuffer(got)
		r.SetPhase("butterfly")
		buf := r.GetBuffer(p)
		for k := 1; k < p; k <<= 1 {
			peer := me ^ k
			n := r.SendRecvInto(peer, peer, k, buf[:k], buf)
			r.Compute(float64(n))
		}
		r.PutBuffer(buf)
	}
	run := func(workers int) (WorldStats, error) {
		w, err := newWorld(p, cfg, workers)
		if err != nil {
			return WorldStats{}, err
		}
		if err := w.Run(body); err != nil {
			return WorldStats{}, err
		}
		return w.Stats(), nil
	}
	want, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < worlds; i++ {
				workers := 2 + 2*((g+i)%2)
				got, err := run(workers)
				if err != nil {
					t.Errorf("goroutine %d world %d (workers=%d): %v", g, i, workers, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d world %d (workers=%d): stats differ from the serial run", g, i, workers)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
