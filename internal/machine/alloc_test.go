package machine

import "testing"

// pingPongRun returns a closure running a fresh 2-rank world that
// exchanges msgs round trips of 256-word messages, recycling the received
// pooled buffers. Worlds are deliberately fresh each call: the buffer
// arena is process-global, so steady-state message traffic must not
// allocate even across World lifetimes.
func pingPongRun(t *testing.T, msgs int) func() {
	payload := make([]float64, 256)
	return func() {
		w := NewWorld(2, BandwidthOnly())
		err := w.Run(func(r *Rank) {
			for i := 0; i < msgs; i++ {
				if r.ID() == 0 {
					r.Send(1, 7, payload)
					r.PutBuffer(r.Recv(1, 8))
				} else {
					r.PutBuffer(r.Recv(0, 7))
					r.Send(0, 8, payload)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSendRecvSteadyStateAllocs pins the allocation cost of the message
// hot path: once the global arena is warm, Send (copy into a pooled
// buffer, pooled message header, intrusive queue link) and Recv (unlink,
// hand the pooled payload to the caller) must be allocation-free, so extra
// messages add nothing on top of a run's fixed World-construction cost.
func TestSendRecvSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	base := testing.AllocsPerRun(20, pingPongRun(t, 4))
	heavy := testing.AllocsPerRun(20, pingPongRun(t, 68))
	perMsg := (heavy - base) / (2 * 64) // 64 extra round trips = 128 messages
	if perMsg > 0.05 {
		t.Errorf("steady-state send/recv allocates %.3f allocs/message (base run %.1f, heavy run %.1f); want ~0", perMsg, base, heavy)
	}
	// Absolute ceiling for a whole 2-rank run: world construction, two
	// rank goroutines, and stats. Seed code paid ~3 allocs per message on
	// top; catch any such regression with generous headroom.
	if heavy > 60 {
		t.Errorf("2-rank world with 68 round trips costs %.1f allocs, want <= 60", heavy)
	}
}

// TestArenaDoesNotHoard runs one-way traffic across two shards: ranks 0–3
// on one shard only send, ranks 4–7 on the other only receive. The sending
// shard's cache only gets and the receiving shard's only puts, so without
// the spill bound every buffer and header would pile up in the receiving
// cache and each new world would allocate its traffic afresh (about 1640
// allocs per world). With it, the pool reaches a steady state and a world
// costs its fixed construction, about 35 allocs.
func TestArenaDoesNotHoard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	const msgs, words = 200, 100
	payload := make([]float64, words)
	world := func() {
		w, err := newWorld(8, BandwidthOnly(), 2)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) {
			me := r.ID()
			if me < 4 {
				for i := 0; i < msgs; i++ {
					r.Send(me+4, 0, payload)
				}
				return
			}
			buf := r.GetBuffer(words)
			for i := 0; i < msgs; i++ {
				r.RecvInto(me-4, 0, buf)
			}
			r.PutBuffer(buf)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		world()
	}
	if allocs := testing.AllocsPerRun(10, world); allocs > 88 {
		t.Errorf("a one-way world after 50 others costs %.1f allocs, want <= 88: a shard cache is hoarding", allocs)
	}
}
