// Package machine implements the distributed-memory parallel machine model
// of the paper's §3.1 (the α-β-γ model) as a deterministic simulator.
//
// A World holds P ranks (processors), each with its own local memory and a
// simulated clock. Ranks execute the same SPMD body. Point-to-point
// messages over the fully connected network cost α + β·w for a message of
// w words, charged to the sender (link occupancy) and realized at the
// receiver no earlier than the send completes; local computation costs γ
// per flop. Because each pair of processors has a dedicated bidirectional
// link, there is no contention: simultaneous messages between different
// pairs overlap freely, which the per-rank clocks model naturally.
//
// The communication cost of an algorithm is counted along its critical
// path — the maximum final clock over ranks — exactly the quantity the
// paper's lower bounds constrain. The simulator additionally tracks, per
// rank, words sent and received (total and per named phase), message
// counts, flops, and a peak-memory watermark, so experiments can compare
// measured volumes against Theorem 3 word-for-word.
//
// The simulator is deterministic: matching is FIFO per (source,
// destination, tag), clocks are pure functions of the communication
// pattern, and no wall-clock time leaks into results. Every observable
// statistic is therefore independent of how rank execution is scheduled —
// pinned by the golden-stats test in internal/algs over the full algorithm
// registry.
//
// # Scheduler
//
// Ranks run as cooperatively scheduled tasks multiplexed onto a small
// worker pool (one worker per GOMAXPROCS, capped at P), suspending in Recv
// and resuming when a matching message is delivered: as in the model,
// ranks interact only through point-to-point messages. The Go scheduler
// never sees more than a handful of runnable goroutines, there are no
// per-rank condition variables, and deadlock detection is an exact, nearly
// free check when the worker pool goes idle. A rank body may block only in
// Recv: anything else that waits on another rank (a channel, a mutex held
// across ranks) stalls its whole shard. See event_engine.go.
package machine

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// MaxRanks is the largest world the simulator supports; task ids are kept
// in 32-bit run queues.
const MaxRanks = math.MaxInt32

// Config sets the machine cost parameters of the α-β-γ model.
type Config struct {
	// Alpha is the per-message latency cost.
	Alpha float64
	// Beta is the per-word bandwidth cost.
	Beta float64
	// Gamma is the per-flop computation cost.
	Gamma float64
}

// Validate reports whether the costs describe an α-β-γ machine: each of
// α, β and γ must be non-negative and finite (zero charges nothing).
// Failures wrap core.ErrBadOpts.
func (c Config) Validate() error {
	for _, v := range [...]float64{c.Alpha, c.Beta, c.Gamma} {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return fmt.Errorf("machine: costs α=%g, β=%g, γ=%g must be non-negative and finite: %w",
				c.Alpha, c.Beta, c.Gamma, core.ErrBadOpts)
		}
	}
	return nil
}

// BandwidthOnly returns a Config that charges 1 per word and nothing for
// latency or computation, so a rank's final clock reads directly in words —
// convenient when comparing against bandwidth lower bounds.
func BandwidthOnly() Config { return Config{Alpha: 0, Beta: 1, Gamma: 0} }

// Network prices messages per (source, destination) pair, replacing the
// uniform α/β of Config for worlds simulating a non-flat interconnect (see
// internal/topo). Charge must be deterministic, allocation-free, and safe
// for concurrent calls: every rank consults it on every send, and the
// simulator's results must not depend on execution scheduling. The cost
// of one message of w words from src to dst is alpha + beta·w, charged to
// the sender exactly like the uniform model.
type Network interface {
	Charge(src, dst int) (alpha, beta float64)
}

// message is one in-flight point-to-point message. Headers are pooled in
// the arena and queues link them intrusively through next, so the
// steady-state send path allocates nothing.
type message struct {
	src, dst int
	tag      int
	data     []float64
	// sendClock is the sender's simulated time when the send was posted;
	// the message is available at the receiver at sendClock + α + β·w.
	sendClock float64
	next      *message
}

// msgQueue is a FIFO of in-flight messages from one source to one
// destination, linked intrusively so enqueue/dequeue never allocate.
type msgQueue struct {
	head, tail *message
}

// pairKey packs a (destination, source) pair into one message-store key;
// both fit in 32 bits (see MaxRanks).
func pairKey(dst, src int) uint64 { return uint64(dst)<<32 | uint64(src) }

// World is a simulated machine of P ranks.
type World struct {
	p   int
	cfg Config

	// eng executes the SPMD bodies and implements the blocking points.
	eng *eventEngine

	trace   *Trace
	traffic *TrafficMatrix

	// net, when non-nil, prices each send per (src, dst) pair instead of
	// the uniform cfg.Alpha/cfg.Beta. Nil worlds keep the original scalar
	// arithmetic — the topology-disabled hot path is untouched.
	net Network

	ranks []Rank
}

// New creates a machine with p ranks and the given cost model, reporting
// invalid inputs as typed errors: a non-positive p wraps
// core.ErrBadProcessorCount, a p beyond MaxRanks wraps
// core.ErrTooManyRanks, and costs Config.Validate refuses wrap
// core.ErrBadOpts.
func New(p int, cfg Config) (*World, error) { return newWorld(p, cfg, 0) }

// newWorld is New with an explicit scheduler pool width; workers below one
// select GOMAXPROCS. Tests pin the width to exercise multi-worker paths on
// any host.
func newWorld(p int, cfg Config, workers int) (*World, error) {
	if err := checkRankCount(p); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{p: p, cfg: cfg}
	w.eng = newEventEngine(w, workers)
	// Ranks are allocated in one block, each bound to its home shard's
	// arena cache; per-phase stat entries are created lazily on first use
	// (see phaseEntry).
	w.ranks = make([]Rank, p)
	for i := range w.ranks {
		w.ranks[i] = Rank{id: i, world: w, cache: &shardCaches[w.eng.shardOf(i)%len(shardCaches)]}
	}
	if obs.Enabled() {
		mWorlds.Inc()
	}
	return w, nil
}

// checkRankCount validates p against the simulator's capacity.
func checkRankCount(p int) error {
	if p <= 0 {
		return fmt.Errorf("%w: world size %d", core.ErrBadProcessorCount, p)
	}
	if p > MaxRanks {
		return fmt.Errorf("%w: world size %d exceeds the limit of %d",
			core.ErrTooManyRanks, p, MaxRanks)
	}
	return nil
}

// SetNetwork installs a per-pair message-pricing oracle; call before Run.
// A nil network restores the uniform Config pricing.
func (w *World) SetNetwork(n Network) { w.net = n }

// Run executes body on every rank concurrently and blocks until all ranks
// return. It returns an error if any rank panicked (including simulator-
// detected deadlocks). A World can be Run only once; create a fresh World
// per experiment.
func (w *World) Run(body func(*Rank)) error { return w.eng.run(body) }

// Stats aggregates the per-rank statistics after Run has completed.
func (w *World) Stats() WorldStats {
	ws := WorldStats{Ranks: make([]RankStats, w.p)}
	for i := range w.ranks {
		r := &w.ranks[i]
		ws.Ranks[i] = r.stats
		ws.Ranks[i].FinalClock = r.clock
		if r.clock > ws.CriticalPath {
			ws.CriticalPath = r.clock
		}
		ws.TotalWordsSent += r.stats.WordsSent
		ws.TotalMessages += r.stats.MsgsSent
		if r.stats.WordsRecv > ws.MaxWordsRecv {
			ws.MaxWordsRecv = r.stats.WordsRecv
		}
		if r.stats.WordsSent > ws.MaxWordsSent {
			ws.MaxWordsSent = r.stats.WordsSent
		}
		if r.stats.PeakMemory > ws.MaxPeakMemory {
			ws.MaxPeakMemory = r.stats.PeakMemory
		}
	}
	return ws
}

// deadlockMessage renders the verdict of a verified deadlock: every rank
// is blocked in Recv or finished, and at least one is blocked.
func deadlockMessage(recvBlocked, done, inflight int) string {
	if done > 0 {
		return fmt.Sprintf("deadlock: %d ranks blocked in Recv, %d finished, with %d undeliverable messages in flight", recvBlocked, done, inflight)
	}
	return fmt.Sprintf("deadlock: all %d ranks blocked in Recv with %d undeliverable messages in flight", recvBlocked, inflight)
}
