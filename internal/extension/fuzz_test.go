package extension

import (
	"math"
	"testing"

	"repro/internal/machine"
)

// FuzzRunMatchesSerial fuzzes dimensions, grids, and seeds of the
// d-dimensional generalized algorithm against the serial reference, and
// checks the generalized bound is never beaten.
func FuzzRunMatchesSerial(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint8(3), uint8(2), uint8(1), uint8(2), uint64(1))
	f.Add(uint8(5), uint8(3), uint8(2), uint8(4), uint8(1), uint8(2), uint8(1), uint64(9))
	f.Fuzz(func(t *testing.T, aRaw, bRaw, cRaw, dRaw, g1Raw, g2Raw, g3Raw uint8, seed uint64) {
		dims := []int{int(aRaw%6) + 1, int(bRaw%6) + 1, int(cRaw%6) + 1, int(dRaw%6) + 1}
		gdims := []int{int(g1Raw%3) + 1, int(g2Raw%3) + 1, int(g3Raw%3) + 1, 1}
		for i := range gdims {
			if gdims[i] > dims[i] {
				gdims[i] = 1
			}
		}
		pr, err := NewProblem(dims...)
		if err != nil {
			t.Fatal(err)
		}
		g := Grid{Dims: gdims}
		res, err := Run(pr, g, seed, machine.BandwidthOnly())
		if err != nil {
			t.Fatal(err)
		}
		want := Serial(pr, seed).Data[pr.D()-1]
		for i := range want {
			if math.Abs(res.Output[i]-want[i]) > 1e-9 {
				t.Fatalf("dims %v grid %v: output[%d] = %v, want %v", dims, gdims, i, res.Output[i], want[i])
			}
		}
		if res.Stats.CommCost() < pr.LowerBound(g.Size())-1e-9 {
			t.Fatalf("dims %v grid %v: volume %v beats bound %v", dims, gdims, res.Stats.CommCost(), pr.LowerBound(g.Size()))
		}
	})
}
