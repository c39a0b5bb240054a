package machine

import (
	"testing"
)

// uniformNet is a Network charging the same (α, β) to every pair — the
// shape topo's Flat fast path takes.
type uniformNet struct{ alpha, beta float64 }

func (n uniformNet) Charge(int, int) (float64, float64) { return n.alpha, n.beta }

// pairNet doubles the charge between ranks in different halves of the
// world, a minimal stand-in for a hierarchical fabric.
type pairNet struct {
	p           int
	alpha, beta float64
}

func (n pairNet) Charge(src, dst int) (float64, float64) {
	if (src < n.p/2) != (dst < n.p/2) {
		return 2 * n.alpha, 2 * n.beta
	}
	return n.alpha, n.beta
}

// ringRun runs a p-rank ring exchange of 16-word messages and returns the
// world's stats.
func ringRun(t *testing.T, p int, cfg Config, net Network) WorldStats {
	t.Helper()
	w := NewWorld(p, cfg)
	if net != nil {
		w.SetNetwork(net)
	}
	payload := make([]float64, 16)
	if err := w.Run(func(r *Rank) {
		next := (r.ID() + 1) % p
		prev := (r.ID() + p - 1) % p
		r.PutBuffer(r.SendRecv(next, prev, 3, payload))
	}); err != nil {
		t.Fatal(err)
	}
	return w.Stats()
}

// TestUniformNetworkMatchesConfig pins the bit-identity contract at the
// simulator level: a Network returning exactly (cfg.Alpha, cfg.Beta) yields
// WorldStats identical to running with no network at all — same floats,
// not merely close ones.
func TestUniformNetworkMatchesConfig(t *testing.T) {
	cfg := Config{Alpha: 2, Beta: 0.5, Gamma: 0.125}
	base := ringRun(t, 8, cfg, nil)
	with := ringRun(t, 8, cfg, uniformNet{alpha: cfg.Alpha, beta: cfg.Beta})
	if base.CriticalPath != with.CriticalPath || base.TotalWordsSent != with.TotalWordsSent {
		t.Fatalf("uniform network diverged: base %+v, with %+v", base, with)
	}
	for i := range base.Ranks {
		if base.Ranks[i].FinalClock != with.Ranks[i].FinalClock {
			t.Fatalf("rank %d clock %v with network, %v without", i, with.Ranks[i].FinalClock, base.Ranks[i].FinalClock)
		}
	}
}

// TestNetworkChangesCharges checks a pair-dependent network actually moves
// clocks: cross-half messages cost double.
func TestNetworkChangesCharges(t *testing.T) {
	cfg := Config{Alpha: 1, Beta: 1}
	w := NewWorld(4, cfg)
	w.SetNetwork(pairNet{p: 4, alpha: cfg.Alpha, beta: cfg.Beta})
	var nearClock, farClock float64
	if err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, make([]float64, 8)) // same half: 1 + 8
			nearClock = r.clock
			r.Send(3, 1, make([]float64, 8)) // cross half: 2 + 16
			farClock = r.clock
		case 1:
			r.PutBuffer(r.Recv(0, 0))
		case 3:
			r.PutBuffer(r.Recv(0, 1))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if nearClock != 9 {
		t.Errorf("same-half send clock = %v, want 9", nearClock)
	}
	if farClock != 9+18 {
		t.Errorf("cross-half send clock = %v, want 27", farClock)
	}
}

// TestNetworkSendSteadyStateAllocs pins the topology-enabled hot path: with
// a Network installed, steady-state Send must stay allocation-free — the
// Charge call is an interface dispatch plus arithmetic, nothing more.
func TestNetworkSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	run := func(msgs int) func() {
		payload := make([]float64, 256)
		net := uniformNet{alpha: 1, beta: 0.5}
		return func() {
			w := NewWorld(2, BandwidthOnly())
			w.SetNetwork(net)
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
	base := testing.AllocsPerRun(20, run(4))
	heavy := testing.AllocsPerRun(20, run(68))
	perMsg := (heavy - base) / (2 * 64)
	if perMsg > 0.05 {
		t.Errorf("networked send/recv allocates %.3f allocs/message (base %.1f, heavy %.1f); want ~0", perMsg, base, heavy)
	}
}
