package machine

import (
	"fmt"

	"repro/internal/obs"
)

// Rank is one simulated processor. All methods must be called only from the
// goroutine executing this rank's SPMD body.
type Rank struct {
	id    int
	world *World
	// cache is the home shard's arena cache every get and put goes to.
	cache *shardCache
	clock float64
	phase string
	stats RankStats

	// phaseStart is the clock when the current phase label was set; used by
	// the trace's per-phase span recorder.
	phaseStart float64
	// sentFrom, recvFrom, msgsSentFrom and msgsRecvFrom snapshot the
	// rank's totals when the current phase label was set; leaving the
	// phase folds the difference into the per-phase entries (see
	// foldPhase), so messages do no phase bookkeeping of their own.
	sentFrom, recvFrom         float64
	msgsSentFrom, msgsRecvFrom int

	curMemory float64
}

// ID returns the rank's index in [0, P).
func (r *Rank) ID() int { return r.id }

// P returns the world size.
func (r *Rank) P() int { return r.world.p }

// SetPhase labels subsequent communication for per-phase accounting (e.g.
// "allgather-A"). The empty string disables attribution. With tracing
// enabled, each contiguous stretch under one label is also recorded as a
// PhaseSpan — the per-rank, per-phase intervals the Chrome-trace export
// renders as one span per algorithm phase.
func (r *Rank) SetPhase(name string) {
	r.foldPhase()
	if t := r.world.trace; t != nil && name != r.phase {
		if r.phase != "" {
			t.addPhase(PhaseSpan{Rank: r.id, Phase: r.phase, Start: r.phaseStart, End: r.clock})
		}
		r.phaseStart = r.clock
	}
	r.phase = name
	r.sentFrom, r.msgsSentFrom = r.stats.WordsSent, r.stats.MsgsSent
	r.recvFrom, r.msgsRecvFrom = r.stats.WordsRecv, r.stats.MsgsRecv
}

// foldPhase adds the words moved since the current phase label was set to
// the label's entry, marking only a direction in which a message moved
// and creating the entry only when one did. Word counts are integers, so
// the differences of the running totals are exact and equal the
// per-message sums.
func (r *Rank) foldPhase() {
	sent, recv := r.stats.MsgsSent != r.msgsSentFrom, r.stats.MsgsRecv != r.msgsRecvFrom
	if r.phase == "" || (!sent && !recv) {
		return
	}
	pw := r.phaseEntry()
	if sent {
		pw.Sent += r.stats.WordsSent - r.sentFrom
		pw.HasSent = true
	}
	if recv {
		pw.Recv += r.stats.WordsRecv - r.recvFrom
		pw.HasRecv = true
	}
}

// phaseEntry returns the current label's entry in the rank's stats,
// appending it on first use. The first entry allocates room for four,
// enough for every label a registry algorithm sets, so a rank's phase
// accounting costs one small allocation.
func (r *Rank) phaseEntry() *PhaseWords {
	ps := r.stats.Phases
	for i := range ps {
		if ps[i].Phase == r.phase {
			return &ps[i]
		}
	}
	if ps == nil {
		ps = make([]PhaseWords, 0, 4)
	}
	r.stats.Phases = append(ps, PhaseWords{Phase: r.phase})
	return &r.stats.Phases[len(ps)]
}

// endPhase closes a phase span left open when the SPMD body returns.
func (r *Rank) endPhase() {
	if r.phase != "" {
		r.SetPhase("")
	}
}

// Send posts a message of data to rank dst with the given tag. Sends are
// eager (non-blocking): the sender's clock advances by the link-occupancy
// cost α + β·w and the message becomes available to the receiver at that
// time. The data is copied, simulating serialization into the network; the
// copy lands in a pooled buffer from the arena, so the caller keeps
// ownership of data and steady-state sends allocate nothing. The in-flight
// buffer is recycled when the receiver uses RecvInto (or releases it with
// PutBuffer after a plain Recv).
func (r *Rank) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= r.world.p {
		panic(fmt.Sprintf("machine: send to rank %d of %d", dst, r.world.p))
	}
	if dst == r.id {
		panic("machine: self-send; keep local data local")
	}
	w := float64(len(data))
	cp := r.cache.get(len(data))
	copy(cp, data)
	start := r.clock
	if n := r.world.net; n != nil {
		a, b := n.Charge(r.id, dst)
		r.clock += a + b*w
	} else {
		r.clock += r.world.cfg.Alpha + r.world.cfg.Beta*w
	}
	if t := r.world.trace; t != nil {
		t.add(Event{Rank: r.id, Kind: EventSend, Peer: dst, Tag: tag, Words: w, Start: start, End: r.clock, Phase: r.phase})
	}
	if tm := r.world.traffic; tm != nil {
		tm.add(r.id, dst, w)
	}
	r.stats.WordsSent += w
	r.stats.MsgsSent++
	if obs.Enabled() {
		mSends.Inc(r.id)
		mWordsSent.Add(r.id, uint64(len(data)))
	}
	m := r.cache.getMsg()
	m.src, m.dst, m.tag, m.data, m.sendClock = r.id, dst, tag, cp, r.clock
	r.world.eng.send(m)
}

// recvMsg blocks for a message from src with the given tag and performs the
// shared receive bookkeeping (clock advance, tracing, statistics).
func (r *Rank) recvMsg(src, tag int) *message {
	if src < 0 || src >= r.world.p {
		panic(fmt.Sprintf("machine: recv from rank %d of %d", src, r.world.p))
	}
	if src == r.id {
		panic("machine: self-recv")
	}
	start := r.clock
	m := r.world.eng.recv(r.id, src, tag)
	if m.sendClock > r.clock {
		r.clock = m.sendClock
	}
	w := float64(len(m.data))
	if t := r.world.trace; t != nil {
		t.add(Event{Rank: r.id, Kind: EventRecv, Peer: src, Tag: tag, Words: w, Start: start, End: r.clock, Phase: r.phase})
	}
	r.stats.WordsRecv += w
	r.stats.MsgsRecv++
	if obs.Enabled() {
		mRecvs.Inc(r.id)
		mWordsRecv.Add(r.id, uint64(len(m.data)))
	}
	return m
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. The receiver's clock advances to the message's
// arrival time (send completion) if that is later than its current time.
// Ownership of the returned buffer transfers to the caller; it is never
// recycled behind the caller's back, but callers that finish with it may
// hand it back with PutBuffer. Callers that only need the payload copied
// into a buffer they already own should prefer RecvInto, which recycles
// the in-flight buffer immediately.
func (r *Rank) Recv(src, tag int) []float64 {
	m := r.recvMsg(src, tag)
	data := m.data
	r.cache.putMsg(m)
	return data
}

// RecvInto receives like Recv but copies the payload into dst and recycles
// the in-flight buffer, returning the number of words received. dst must be
// at least as long as the payload; only the returned prefix is written. The
// simulated cost, clocks, and statistics are identical to Recv.
func (r *Rank) RecvInto(src, tag int, dst []float64) int {
	m := r.recvMsg(src, tag)
	n := len(m.data)
	if n > len(dst) {
		panic(fmt.Sprintf("machine: RecvInto buffer holds %d words, message has %d", len(dst), n))
	}
	copy(dst[:n], m.data)
	r.cache.put(m.data)
	r.cache.putMsg(m)
	return n
}

// SendRecvInto posts a send to dst and then receives from src into the
// buffer into, modelling the simultaneous exchange permitted by the
// bidirectional links of §3.1; the in-flight buffer is recycled (see
// RecvInto). data and into may alias: Send serializes data into a pooled
// buffer before the receive overwrites into.
func (r *Rank) SendRecvInto(dst, src, tag int, data, into []float64) int {
	r.Send(dst, tag, data)
	return r.RecvInto(src, tag, into)
}

// Compute advances the rank's clock by γ·flops and records the flop count.
func (r *Rank) Compute(flops float64) {
	if flops < 0 {
		panic("machine: negative flops")
	}
	start := r.clock
	r.clock += r.world.cfg.Gamma * flops
	if t := r.world.trace; t != nil && flops > 0 {
		t.add(Event{Rank: r.id, Kind: EventCompute, Peer: -1, Words: flops, Start: start, End: r.clock, Phase: r.phase})
	}
	r.stats.Flops += flops
}

// GrowMemory records an allocation of the given number of words in the
// rank's local memory, updating the peak watermark. Algorithms call it
// (paired with ShrinkMemory) around their buffers so experiments can check
// the §6.2 memory-footprint claims.
func (r *Rank) GrowMemory(words float64) {
	if words < 0 {
		panic("machine: negative allocation")
	}
	r.curMemory += words
	if r.curMemory > r.stats.PeakMemory {
		r.stats.PeakMemory = r.curMemory
	}
}

// ShrinkMemory records the release of words of local memory.
func (r *Rank) ShrinkMemory(words float64) {
	r.curMemory -= words
	if r.curMemory < -1e-9 {
		panic("machine: memory accounting went negative")
	}
}
