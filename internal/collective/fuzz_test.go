package collective

import (
	"math"
	"testing"

	"repro/internal/machine"
)

// FuzzAllGatherReduceScatterDuality fuzzes group sizes, counts, and
// algorithm families against a naive oracle: All-Gather must concatenate
// exactly, Reduce-Scatter must sum exactly, and the two costs must match
// the (W − own) formula.
func FuzzAllGatherReduceScatterDuality(f *testing.F) {
	f.Add(uint8(4), uint8(3), true)
	f.Add(uint8(7), uint8(2), false)
	f.Add(uint8(1), uint8(5), true)
	f.Fuzz(func(t *testing.T, pRaw, wRaw uint8, recursive bool) {
		p := int(pRaw%12) + 1
		blockW := int(wRaw % 6)
		alg := Ring
		if recursive && p&(p-1) == 0 {
			alg = Recursive
		}
		members := make([]int, p)
		for i := range members {
			members[i] = i
		}
		world := newWorld(t, p)
		gathered := make([][]float64, p)
		reduced := make([][]float64, p)
		err := world.Run(func(r *machine.Rank) {
			g := NewGroup(r, members, 1, alg)
			block := make([]float64, blockW)
			for i := range block {
				block[i] = float64(r.ID()*100 + i)
			}
			gathered[r.ID()] = g.AllGather(block)
			full := make([]float64, p*blockW)
			for i := range full {
				full[i] = float64(r.ID())
			}
			reduced[r.ID()] = g.ReduceScatter(full)
		})
		if err != nil {
			t.Fatal(err)
		}
		wantSum := float64(p*(p-1)) / 2
		for rank := 0; rank < p; rank++ {
			if len(gathered[rank]) != p*blockW {
				t.Fatalf("gather length %d", len(gathered[rank]))
			}
			for m := 0; m < p; m++ {
				for i := 0; i < blockW; i++ {
					if gathered[rank][m*blockW+i] != float64(m*100+i) {
						t.Fatalf("gather wrong at member %d elem %d", m, i)
					}
				}
			}
			for _, v := range reduced[rank] {
				if math.Abs(v-wantSum) > 1e-12 {
					t.Fatalf("reduce-scatter value %v, want %v", v, wantSum)
				}
			}
		}
		// Cost: every rank receives exactly (p−1)·blockW words per op.
		for rank, rs := range world.Stats().Ranks {
			if want := float64(2 * (p - 1) * blockW); rs.WordsRecv != want {
				t.Fatalf("rank %d recv %v, want %v", rank, rs.WordsRecv, want)
			}
		}
	})
}
