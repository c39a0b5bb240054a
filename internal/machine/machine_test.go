package machine

import (
	"math"
	"strings"
	"testing"
)

func TestNewWorldValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for P=0")
		}
	}()
	NewWorld(0, BandwidthOnly())
}

func TestPingPongTimingAndStats(t *testing.T) {
	cfg := Config{Alpha: 10, Beta: 2, Gamma: 0}
	w := NewWorld(2, cfg)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, []float64{1, 2, 3}) // clock: 10 + 2*3 = 16
			got := r.Recv(1, 8)              // arrives at 16+10+2 = 28
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("reply = %v", got)
			}
		case 1:
			msg := r.Recv(0, 7) // clock: max(0, 16) = 16
			if len(msg) != 3 || msg[2] != 3 {
				t.Errorf("msg = %v", msg)
			}
			r.Send(0, 8, []float64{42}) // clock: 16 + 10 + 2 = 28
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.CriticalPath != 28 {
		t.Errorf("critical path = %v, want 28", s.CriticalPath)
	}
	if s.Ranks[0].WordsSent != 3 || s.Ranks[0].WordsRecv != 1 {
		t.Errorf("rank 0 words = %v sent %v recv", s.Ranks[0].WordsSent, s.Ranks[0].WordsRecv)
	}
	if s.Ranks[1].MsgsRecv != 1 || s.Ranks[1].MsgsSent != 1 {
		t.Errorf("rank 1 msgs = %+v", s.Ranks[1])
	}
	if s.TotalWordsSent != 4 || s.TotalMessages != 2 {
		t.Errorf("totals = %v words %v msgs", s.TotalWordsSent, s.TotalMessages)
	}
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1}
			r.Send(1, 0, buf)
			buf[0] = 999 // must not affect the in-flight message
		} else {
			if got := r.Recv(0, 0); got[0] != 1 {
				t.Errorf("received %v, want 1 (send must copy)", got[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{1})
			r.Send(1, 2, []float64{2})
		} else {
			// Receive tag 2 first even though tag 1 was sent first.
			if got := r.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 payload = %v", got)
			}
			if got := r.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 payload = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOWithinTag(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 3, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := r.Recv(0, 3); got[0] != float64(i) {
					t.Errorf("message %d = %v", i, got[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	w := NewWorld(1, Config{Gamma: 0.5})
	err := w.Run(func(r *Rank) {
		r.Compute(10)
		if r.clock != 5 {
			t.Errorf("clock = %v, want 5", r.clock)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Ranks[0].Flops != 10 {
		t.Error("flops not recorded")
	}
}

func TestDeadlockDetectionAllRecv(t *testing.T) {
	w := NewWorld(3, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		r.Recv((r.ID()+1)%3, 0) // nobody ever sends
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

// TestDeadlockDetectionUndeliverableInflight: a message nobody will ever
// consume (wrong tag) must not mask the stall — the receiver is blocked on
// tag 6 while tag 5 sits in its mailbox and the sender has finished.
func TestDeadlockDetectionUndeliverableInflight(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, []float64{1})
			return
		}
		r.Recv(0, 6)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "1 undeliverable") {
		t.Fatalf("expected the in-flight message to be reported, got %v", err)
	}
}

// TestConcurrentTaggedSendsStress floods every mailbox with messages on
// many tags at once and consumes them out of send order: each rank sends
// two messages per tag to every other rank, and receivers drain each
// sender's tags in reverse, so at peak every per-(src,dst) queue holds
// messages for several tags and the scheduler's targeted wakeups must pick
// the one the receiver advertised. FIFO order within a (src, tag) pair must
// still hold.
func TestConcurrentTaggedSendsStress(t *testing.T) {
	const (
		p       = 48
		tags    = 4
		perTag  = 2
		payload = 3
	)
	w := NewWorld(p, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		me := r.ID()
		buf := make([]float64, payload)
		for dst := 0; dst < p; dst++ {
			if dst == me {
				continue
			}
			for tag := 0; tag < tags; tag++ {
				for seq := 0; seq < perTag; seq++ {
					buf[0] = float64(me)
					buf[1] = float64(tag)
					buf[2] = float64(seq)
					r.Send(dst, tag, buf)
				}
			}
		}
		for src := 0; src < p; src++ {
			if src == me {
				continue
			}
			for tag := tags - 1; tag >= 0; tag-- { // reverse of send order
				for seq := 0; seq < perTag; seq++ {
					got := r.Recv(src, tag)
					if got[0] != float64(src) || got[1] != float64(tag) || got[2] != float64(seq) {
						t.Errorf("rank %d from %d tag %d: got (%v,%v,%v), want (%d,%d,%d)",
							me, src, tag, got[0], got[1], got[2], src, tag, seq)
					}
					r.PutBuffer(got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankPanicPropagatesAndUnblocksPeers(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			panic("boom")
		}
		r.Recv(0, 0) // would block forever without failure propagation
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic propagation, got %v", err)
	}
}

func TestSelfSendPanics(t *testing.T) {
	w := NewWorld(1, BandwidthOnly())
	err := w.Run(func(r *Rank) { r.Send(0, 0, []float64{1}) })
	if err == nil {
		t.Fatal("expected error for self-send")
	}
}

func TestInvalidPeerPanics(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(5, 0, nil)
		}
	})
	if err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
}

func TestSendRecvExchangeOverlaps(t *testing.T) {
	// Both ranks exchange w words simultaneously; with bidirectional links
	// the critical path is α + β·w, not twice that.
	cfg := Config{Alpha: 1, Beta: 1}
	w := NewWorld(2, cfg)
	data := make([]float64, 9)
	err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		r.SendRecv(peer, peer, 0, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().CriticalPath; got != 10 {
		t.Errorf("exchange critical path = %v, want 10 (α+β·w)", got)
	}
}

// TestPhaseAccounting checks per-phase words against the per-message
// sums: a phase re-entered after another sums both stretches, unlabelled
// traffic is counted only in the totals, a zero-word message creates its
// phase's keys with value 0, a phase in which a rank only sends has no
// receive key on it (and vice versa), and a phase still open when the body
// returns is counted.
func TestPhaseAccounting(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		r.SetPhase("warmup")
		r.SendRecv(peer, peer, 0, make([]float64, 4))
		r.SetPhase("main")
		r.SendRecv(peer, peer, 1, make([]float64, 6))
		r.SetPhase("")
		r.SendRecv(peer, peer, 2, make([]float64, 5))
		r.SetPhase("warmup")
		r.SendRecv(peer, peer, 3, make([]float64, 3))
		r.SetPhase("empty")
		r.SendRecv(peer, peer, 4, nil)
		r.SetPhase("oneway")
		if r.ID() == 0 {
			r.Send(1, 5, make([]float64, 7))
		} else {
			r.PutBuffer(r.Recv(0, 5))
		}
		r.SetPhase("tail")
		r.SendRecv(peer, peer, 6, make([]float64, 2))
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	for phase, want := range map[string]float64{"warmup": 14, "main": 12, "empty": 0, "oneway": 7, "tail": 4} {
		if got := s.PhaseRecvTotal(phase); got != want {
			t.Errorf("phase %q received %v words in total, want %v", phase, got, want)
		}
	}
	if s.MaxPhaseRecv("main") != 6 {
		t.Errorf("max phase recv = %v", s.MaxPhaseRecv("main"))
	}
	for id, rs := range s.Ranks {
		if got := rs.PhaseSentWords["warmup"]; got != 7 {
			t.Errorf("rank %d sent %v words in the re-entered phase, want 7", id, got)
		}
		for _, m := range []map[string]float64{rs.PhaseSentWords, rs.PhaseRecvWords} {
			if v, ok := m["empty"]; !ok || v != 0 {
				t.Errorf("rank %d: zero-word phase reads %v (present %v), want 0 present", id, v, ok)
			}
			if _, ok := m[""]; ok {
				t.Errorf("rank %d: unlabelled traffic has a phase key", id)
			}
		}
	}
	if _, ok := s.Ranks[0].PhaseRecvWords["oneway"]; ok {
		t.Error("rank 0 only sent in phase oneway but has a receive key for it")
	}
	if _, ok := s.Ranks[1].PhaseSentWords["oneway"]; ok {
		t.Error("rank 1 only received in phase oneway but has a send key for it")
	}
	if s.Ranks[0].WordsRecv != 20 || s.Ranks[1].WordsRecv != 27 {
		t.Errorf("total words received = %v, %v; want 20, 27", s.Ranks[0].WordsRecv, s.Ranks[1].WordsRecv)
	}
}

func TestMemoryAccounting(t *testing.T) {
	w := NewWorld(1, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		r.GrowMemory(100)
		r.GrowMemory(50)
		if r.curMemory != 150 {
			t.Errorf("in use = %v", r.curMemory)
		}
		r.ShrinkMemory(120)
		r.GrowMemory(10) // peak stays 150
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().MaxPeakMemory; got != 150 {
		t.Errorf("peak = %v, want 150", got)
	}
}

func TestNegativeMemoryPanics(t *testing.T) {
	w := NewWorld(1, BandwidthOnly())
	if err := w.Run(func(r *Rank) { r.ShrinkMemory(1) }); err == nil {
		t.Fatal("expected error for negative memory accounting")
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() float64 {
		w := NewWorld(4, Config{Alpha: 3, Beta: 0.5, Gamma: 0.1})
		err := w.Run(func(r *Rank) {
			// Ring shift repeated: deterministic pattern.
			for step := 0; step < 10; step++ {
				next := (r.ID() + 1) % 4
				prev := (r.ID() + 3) % 4
				r.Send(next, step, make([]float64, 8))
				r.Recv(prev, step)
				r.Compute(100)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Stats().CriticalPath
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic critical path: %v vs %v", got, first)
		}
	}
	if first <= 0 || math.IsNaN(first) {
		t.Fatalf("critical path = %v", first)
	}
}

func TestBandwidthOnlyReadsInWords(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 77))
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().CriticalPath; got != 77 {
		t.Errorf("critical path = %v, want 77 words", got)
	}
	if got := w.Stats().CommCost(); got != 77 {
		t.Errorf("CommCost = %v", got)
	}
}

// SendRecv posts a send to dst and then receives from src, modelling the
// simultaneous exchange permitted by the bidirectional links of §3.1.
func (r *Rank) SendRecv(dst, src, tag int, data []float64) []float64 {
	r.Send(dst, tag, data)
	return r.Recv(src, tag)
}

// PhaseRecvTotal sums a named phase's received words over ranks.
func (s WorldStats) PhaseRecvTotal(phase string) float64 {
	t := 0.0
	for _, r := range s.Ranks {
		t += r.PhaseRecvWords[phase]
	}
	return t
}

// NewWorld creates a machine with p ranks and the given cost model,
// panicking on invalid inputs: the tests' shorthand for New.
func NewWorld(p int, cfg Config) *World {
	w, err := New(p, cfg)
	if err != nil {
		panic(err)
	}
	return w
}
