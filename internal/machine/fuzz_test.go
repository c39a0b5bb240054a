package machine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// FuzzScheduler holds the engine to its contract against a sequential
// reference. It decodes a round-based rank program, runs it on schedulers
// of 1, 2, 3 and 8 shards and through interpret, and requires every rank's
// stats and clock, the message each receive got, and the Run error to
// agree exactly. The program never deadlocks; the same program with one
// send dropped must deadlock with exactly the interpreter's verdict.
func FuzzScheduler(f *testing.F) {
	for _, seed := range schedulerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(data)
		if ref := checkProgram(t, prog); ref.err != "" {
			t.Fatalf("a round-based program deadlocked: %s", ref.err)
		}
		if prog.sends == 0 {
			return
		}
		drop := int(data[1]) / len(fuzzCosts) % prog.sends
		if ref := checkProgram(t, prog.dropSend(drop)); ref.err == "" {
			t.Fatalf("dropping message %d left a program that does not deadlock", drop)
		}
	})
}

// Kinds of Rank call in a rank program.
const (
	opSend = iota
	opRecv
	opCompute
	opPhase
	opGrow
	opShrink
)

// progOp is one Rank call. A send posts n words, each holding id, to peer;
// a receive takes the next message from peer with its tag, through
// RecvInto when into is set and Recv otherwise. n is also the flops of
// Compute and the words of GrowMemory and ShrinkMemory.
type progOp struct {
	kind, peer, tag, n, id int
	into                   bool
	phase                  string
}

// program is a world size, its costs, and each rank's calls in order.
type program struct {
	p     int
	cfg   Config
	ranks [][]progOp
	sends int
}

// fuzzCosts are the machines a program runs on. The third is not dyadic,
// so clock arithmetic done in another order shows in the bits.
var fuzzCosts = [...]Config{
	BandwidthOnly(),
	{Alpha: 2, Beta: 0.5, Gamma: 0.125},
	{Alpha: 0.1, Beta: 0.3, Gamma: 0.7},
	{Alpha: 1e-3, Beta: 3},
}

const (
	fuzzMaxRounds = 12
	fuzzMaxWords  = 7
)

// decodeProgram reads a program from data. data[0] gives the world size,
// 2 + data[0]%11, and data[1] the costs, fuzzCosts[data[1]%4] (the rest of
// that byte picks the send the deadlocking variant drops). Up to
// fuzzMaxRounds rounds follow. A round is a count byte (c%17 sends), then
// three bytes per send: source, destination as an offset past the source,
// and tag (bits 0–1), words (bits 2–4) and a bookkeeping code (bits 5–7).
// Then, rank by rank, one byte per message the rank receives that round:
// bits 0–3 pick the next of its messages left, in posting order, bit 4
// selects RecvInto, and bits 5–7 are a bookkeeping code. Every rank posts
// its sends of a round before it receives that round's messages, so no
// program deadlocks. Bytes past the end read as zero.
func decodeProgram(data []byte) *program {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	prog := &program{p: 2 + at(0)%11, cfg: fuzzCosts[at(1)%len(fuzzCosts)]}
	prog.ranks = make([][]progOp, prog.p)
	mem := make([]int, prog.p)
	// book appends the call a bookkeeping code selects to rank's program;
	// amounts vary with the rank's position, and a shrink never takes the
	// rank's memory below zero.
	book := func(rank, code int) {
		a := 1 + len(prog.ranks[rank])%5
		o := progOp{n: a}
		switch code {
		case 2:
			o.kind = opCompute
		case 3, 4, 5:
			o.kind, o.phase = opPhase, [...]string{"a", "b", ""}[code-3]
		case 6:
			o.kind = opGrow
			mem[rank] += a
		case 7:
			o.kind, o.n = opShrink, min(a, mem[rank])
			mem[rank] -= o.n
		default:
			return
		}
		prog.ranks[rank] = append(prog.ranks[rank], o)
	}
	type posted struct{ src, dst, tag int }
	i := 2
	for round := 0; round < fuzzMaxRounds && i < len(data); round++ {
		var msgs []posted
		c := at(i) % 17
		i++
		for ; c > 0 && i < len(data); c-- {
			src := at(i) % prog.p
			dst := (src + 1 + at(i+1)%(prog.p-1)) % prog.p
			x := at(i + 2)
			i += 3
			book(src, x>>5)
			prog.ranks[src] = append(prog.ranks[src], progOp{kind: opSend, peer: dst, tag: x & 3, n: (x >> 2) & 7, id: prog.sends})
			prog.sends++
			msgs = append(msgs, posted{src, dst, x & 3})
		}
		for r := range prog.p {
			var left []posted
			for _, m := range msgs {
				if m.dst == r {
					left = append(left, m)
				}
			}
			for len(left) > 0 {
				b := at(i)
				i++
				k := (b & 15) % len(left)
				book(r, b>>5)
				prog.ranks[r] = append(prog.ranks[r], progOp{kind: opRecv, peer: left[k].src, tag: left[k].tag, into: b&16 != 0})
				left = slices.Delete(left, k, k+1)
			}
		}
	}
	return prog
}

// dropSend returns prog without the send of message id. Its receive stays,
// so the program deadlocks.
func (prog *program) dropSend(id int) *program {
	v := *prog
	v.ranks = make([][]progOp, prog.p)
	for r, ops := range prog.ranks {
		for _, o := range ops {
			if o.kind != opSend || o.id != id {
				v.ranks[r] = append(v.ranks[r], o)
			}
		}
	}
	return &v
}

// reference is a program's outcome: each rank's stats, the id of every
// message each rank received (−1 for an empty one), and Run's error text.
type reference struct {
	stats []RankStats
	got   [][]int
	err   string
}

// interpret runs prog rank by rank under the α-β-γ rules. A send advances
// its sender by α + β·w and queues the message with the sender's clock; a
// receive takes the oldest queued message with its (source, tag) and moves
// the receiver's clock up to the message's. A rank runs until it finishes
// or reaches a receive with nothing queued for it, and sweeps over the
// ranks repeat until none moves. Ranks still waiting then are deadlocked,
// and the messages left queued are undeliverable.
func interpret(prog *program) reference {
	type msg struct {
		id, n int
		clock float64
	}
	type key struct{ src, dst, tag int }
	queues := map[key][]msg{}
	ref := reference{stats: make([]RankStats, prog.p), got: make([][]int, prog.p)}
	pc := make([]int, prog.p)
	phase := make([]string, prog.p)
	mem := make([]float64, prog.p)
	// account adds w words moved under the rank's phase to its entry.
	account := func(s *RankStats, phase string, w float64, sent bool) {
		if phase == "" {
			return
		}
		i := slices.IndexFunc(s.Phases, func(pw PhaseWords) bool { return pw.Phase == phase })
		if i < 0 {
			s.Phases = append(s.Phases, PhaseWords{Phase: phase})
			i = len(s.Phases) - 1
		}
		if pw := &s.Phases[i]; sent {
			pw.Sent += w
			pw.HasSent = true
		} else {
			pw.Recv += w
			pw.HasRecv = true
		}
	}
	for moved := true; moved; {
		moved = false
		for r, ops := range prog.ranks {
			s := &ref.stats[r]
		run:
			for ; pc[r] < len(ops); pc[r]++ {
				o := ops[pc[r]]
				switch o.kind {
				case opSend:
					w := float64(o.n)
					s.FinalClock += prog.cfg.Alpha + prog.cfg.Beta*w
					k := key{r, o.peer, o.tag}
					queues[k] = append(queues[k], msg{o.id, o.n, s.FinalClock})
					s.WordsSent += w
					s.MsgsSent++
					account(s, phase[r], w, true)
				case opRecv:
					k := key{o.peer, r, o.tag}
					if len(queues[k]) == 0 {
						break run
					}
					m := queues[k][0]
					queues[k] = queues[k][1:]
					s.FinalClock = max(s.FinalClock, m.clock)
					w := float64(m.n)
					s.WordsRecv += w
					s.MsgsRecv++
					account(s, phase[r], w, false)
					id := m.id
					if m.n == 0 {
						id = -1
					}
					ref.got[r] = append(ref.got[r], id)
				case opCompute:
					s.FinalClock += prog.cfg.Gamma * float64(o.n)
					s.Flops += float64(o.n)
				case opPhase:
					phase[r] = o.phase
				case opGrow:
					mem[r] += float64(o.n)
					s.PeakMemory = max(s.PeakMemory, mem[r])
				case opShrink:
					mem[r] -= float64(o.n)
				}
				moved = true
			}
		}
	}
	blocked, first, inflight := 0, -1, 0
	for r, ops := range prog.ranks {
		if pc[r] < len(ops) {
			blocked++
			if first < 0 {
				first = r
			}
		}
	}
	for _, q := range queues {
		inflight += len(q)
	}
	if blocked > 0 {
		ref.err = fmt.Sprintf("rank %d: machine: aborted: %s", first, deadlockMessage(blocked, prog.p-blocked, inflight))
	}
	return ref
}

// runProgram runs prog on a scheduler of the given shard count and returns
// what interpret returns, read off the engine.
func runProgram(t *testing.T, prog *program, shards int) reference {
	w := testWorld(t, prog.p, prog.cfg, shards)
	got := make([][]int, prog.p)
	err := w.Run(func(r *Rank) {
		me := r.ID()
		var buf [fuzzMaxWords]float64
		for _, o := range prog.ranks[me] {
			switch o.kind {
			case opSend:
				for i := range o.n {
					buf[i] = float64(o.id)
				}
				r.Send(o.peer, o.tag, buf[:o.n])
			case opRecv:
				var in []float64
				if o.into {
					in = buf[:r.RecvInto(o.peer, o.tag, buf[:])]
				} else {
					in = r.Recv(o.peer, o.tag)
				}
				id := -1
				if len(in) > 0 {
					id = int(in[0])
				}
				got[me] = append(got[me], id)
				if !o.into {
					r.PutBuffer(in)
				}
			case opCompute:
				r.Compute(float64(o.n))
			case opPhase:
				r.SetPhase(o.phase)
			case opGrow:
				r.GrowMemory(float64(o.n))
			case opShrink:
				r.ShrinkMemory(float64(o.n))
			}
		}
	})
	out := reference{stats: w.Stats().Ranks, got: got}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// checkProgram runs prog on schedulers of 1, 2, 3 and 8 shards, fails t
// unless each run matches interpret exactly, and returns the reference.
func checkProgram(t *testing.T, prog *program) reference {
	t.Helper()
	want := interpret(prog)
	for _, shards := range []int{1, 2, 3, 8} {
		got := runProgram(t, prog, shards)
		if got.err != want.err {
			t.Fatalf("shards=%d: Run error %q, want %q", shards, got.err, want.err)
		}
		if !reflect.DeepEqual(got.got, want.got) {
			t.Fatalf("shards=%d: received message ids\ngot:  %v\nwant: %v", shards, got.got, want.got)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("shards=%d: rank stats\ngot:  %+v\nwant: %+v", shards, got.stats, want.stats)
		}
	}
	return want
}

// seedMsg is one message of a seed round.
type seedMsg struct{ src, dst, tag, words int }

// seedRound posts msgs in order; order lists them, by index, in the order
// their receivers ask for them (nil: posting order).
type seedRound struct {
	msgs  []seedMsg
	order []int
}

// seedProgram encodes rounds for decodeProgram on p ranks with costs
// fuzzCosts[cost], dropping message drop in the deadlocking variant. The
// j-th call encoded carries bookkeeping code j·book mod 8, and every other
// receive goes through RecvInto.
func seedProgram(p, cost, drop, book int, rounds ...seedRound) []byte {
	data := []byte{byte(p - 2), byte(cost + len(fuzzCosts)*drop)}
	j := 0
	code := func() int { j++; return j * book % 8 }
	for _, rd := range rounds {
		data = append(data, byte(len(rd.msgs)))
		for _, m := range rd.msgs {
			data = append(data, byte(m.src), byte((m.dst-m.src-1+p)%p), byte(m.tag|m.words<<2|code()<<5))
		}
		order := rd.order
		if order == nil {
			for k := range rd.msgs {
				order = append(order, k)
			}
		}
		for r := range p {
			var left []int
			for k, m := range rd.msgs {
				if m.dst == r {
					left = append(left, k)
				}
			}
			for _, k := range order {
				if rd.msgs[k].dst == r {
					pos := slices.Index(left, k)
					left = slices.Delete(left, pos, pos+1)
					c := code()
					data = append(data, byte(pos|j%2<<4|c<<5))
				}
			}
		}
	}
	return data
}

// schedulerSeeds are FuzzScheduler's seed programs. On one shard the
// ranks first run in id order, so a lower rank that receives before a
// higher one sends is parked when the message arrives.
func schedulerSeeds() [][]byte {
	var ring, fanIn, fanOut, perm, swap []seedMsg
	for r := range 5 {
		ring = append(ring, seedMsg{r, (r + 1) % 5, r % 2, r + 1})
	}
	for r := 1; r < 12; r++ {
		fanIn = append(fanIn, seedMsg{r, 0, r % 4, r % 8})
		fanOut = append(fanOut, seedMsg{0, r, 3, 0})
	}
	for r := range 7 {
		perm = append(perm, seedMsg{r, (3*r + 1) % 7, 1, 0})
		if r < 6 {
			swap = append(swap, seedMsg{r, r ^ 1, 0, 2}, seedMsg{r, r ^ 1, 2, 3})
		}
	}
	return [][]byte{
		// A ring shift, the same shift received in reverse, and the
		// reverse ring.
		seedProgram(5, 2, 3, 3,
			seedRound{msgs: ring},
			seedRound{msgs: ring, order: []int{4, 3, 2, 1, 0}},
			seedRound{msgs: []seedMsg{{0, 4, 1, 7}, {4, 3, 1, 6}, {3, 2, 1, 5}, {2, 1, 1, 4}, {1, 0, 1, 3}}}),
		// A fan-in of eleven tagged messages received in reverse, then an
		// empty fan-out.
		seedProgram(12, 1, 7, 5,
			seedRound{msgs: fanIn, order: []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
			seedRound{msgs: fanOut}),
		// Rank 0 parks for tag 1 from rank 1 while two tag-0 messages from
		// rank 1 are stored, then takes them in posting order.
		seedProgram(2, 0, 1, 0,
			seedRound{msgs: []seedMsg{{1, 0, 0, 1}, {1, 0, 0, 2}, {1, 0, 1, 3}}, order: []int{2, 0, 1}}),
		// Two same-tag sends from rank 1 race rank 0, parked for the
		// first; a third from rank 2 must not match it.
		seedProgram(3, 2, 2, 6,
			seedRound{msgs: []seedMsg{{1, 0, 2, 4}, {1, 0, 2, 5}, {2, 0, 2, 6}}, order: []int{0, 2, 1}},
			seedRound{msgs: []seedMsg{{2, 0, 2, 1}, {1, 0, 2, 2}, {2, 0, 2, 0}}, order: []int{1, 2, 0}}),
		// An empty permutation, then pairwise swaps on two tags received
		// tag-reversed.
		seedProgram(7, 3, 5, 7,
			seedRound{msgs: perm},
			seedRound{msgs: swap, order: []int{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10}}),
	}
}
