package topo

import (
	"runtime"
	"testing"
)

// TestChargeDoesNotAllocate pins the Charge hot path: the simulator calls
// it once per message, so both the Flat uniform fast path and the non-flat
// route walk must be allocation-free.
func TestChargeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	for _, spec := range []string{"flat", "twolevel=8", "torus=4x4x4"} {
		n := mustNetwork(t, spec, 64, Contiguous)
		var sink float64
		got := testing.AllocsPerRun(100, func() {
			for s := 0; s < 64; s++ {
				a, b := n.Charge(s, (s+17)%64)
				sink += a + b
			}
		})
		if got != 0 {
			t.Errorf("%s: Charge allocates %.1f per 64 calls, want 0", spec, got)
		}
		_ = sink
	}
}

// TestChargeDoesNotAllocateAtScale pins the walk path at datacenter size:
// WalkCharge must stay allocation-free at P=65536, since the simulator
// calls it once per message and a run at this scale sends tens of
// millions.
func TestChargeDoesNotAllocateAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	const p = 1 << 16
	for _, spec := range []string{"twolevel=64", "torus=16x16x16x16", "fattree=4x8", "tree=2x16"} {
		n := mustNetwork(t, spec, p, Contiguous)
		var sink float64
		got := testing.AllocsPerRun(100, func() {
			for s := 0; s < 64; s++ {
				a, b := n.Charge(s*977+13, ((s+29)*1993)%p)
				sink += a + b
			}
		})
		if got != 0 {
			t.Errorf("%s: walk Charge allocates %.1f per 64 calls, want 0", spec, got)
		}
		_ = sink
	}
}

// TestNewNetworkAllocation pins the charge oracle's construction to
// O(links) memory: at P=2048 a network holds its placement, one flow count
// and one effective β per link, well under 2 MiB on each fabric kind,
// while any per-pair (P²) state would need tens of MiB.
func TestNewNetworkAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	const p = 2048
	for _, spec := range []string{"torus=8x16x16", "twolevel=32", "fattree=2x11"} {
		tp := mustParse(t, spec, p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewNetwork(tp, Contiguous); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
			t.Errorf("%s at P=%d: NewNetwork allocates %d bytes, want at most 2 MiB", spec, p, got)
		}
	}
}

// TestRouteReusesBuffer pins the Route contract: routing into a
// pre-grown buffer must not allocate.
func TestRouteReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under -race instrumentation")
	}
	for _, spec := range []string{"flat", "twolevel=8", "torus=4x4x4", "fattree=4x3"} {
		topo, err := Parse(spec, 64, testLink)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int, 0, 64)
		got := testing.AllocsPerRun(100, func() {
			for s := 0; s < 64; s++ {
				buf = topo.Route(buf[:0], s, (s+21)%64)
			}
		})
		if got != 0 {
			t.Errorf("%s: Route allocates %.1f per 64 calls with warm buffer, want 0", spec, got)
		}
	}
}
