package collective

import (
	"testing"

	"repro/internal/machine"
)

// FuzzAllGatherReduceScatterDuality fuzzes group sizes, per-member counts
// (zero allowed), algorithm families and the in-place forms Algorithm 1
// uses against a naive oracle. All-Gather must concatenate exactly,
// All-to-All must deliver every sender's chunk exactly, and Reduce-Scatter
// must sum exactly. Every rank must receive exactly the words each
// collective moves: W − counts[me] for the gather; (p − 1)·counts[me] for
// the All-to-All; for the reduction, W − counts[(me−1) mod p] on the ring
// and the words of every half it keeps under recursive halving. In place,
// a member's block is its own slot of the gather output and the
// reduction's data is its own scratch; otherwise the reduction must leave
// data untouched.
func FuzzAllGatherReduceScatterDuality(f *testing.F) {
	f.Add(uint8(4), []byte{3}, true, false)
	f.Add(uint8(7), []byte{2}, false, false)
	f.Add(uint8(1), []byte{5}, true, true)
	// Counts [1, 2, 3, 4]: rank 0 receives 6 Reduce-Scatter words on the
	// ring and 4 under recursive halving.
	f.Add(uint8(3), []byte{1, 2, 3, 4}, false, true)
	f.Add(uint8(3), []byte{1, 2, 3, 4}, true, false)
	f.Add(uint8(7), []byte{0, 5, 0, 0, 1, 0, 3, 2}, true, true)
	f.Add(uint8(6), []byte{0, 4, 1}, false, true)
	f.Fuzz(func(t *testing.T, pRaw uint8, raw []byte, recursive, inPlace bool) {
		p := int(pRaw%12) + 1
		alg := Ring
		if recursive && p&(p-1) == 0 {
			alg = Recursive
		}
		members := make([]int, p)
		counts := make([]int, p)
		starts := make([]int, p)
		total := 0
		for i := range counts {
			members[i] = i
			if len(raw) > 0 {
				counts[i] = int(raw[i%len(raw)] % 6)
			}
			starts[i] = total
			total += counts[i]
		}
		world := newWorld(t, p)
		gathered := make([][]float64, p)
		exchanged := make([][]float64, p)
		reduced := make([][]float64, p)
		err := world.Run(func(r *machine.Rank) {
			me := r.ID()
			g := newGroup(r, members, 1, alg)
			out := make([]float64, total)
			block := make([]float64, counts[me])
			if inPlace {
				block = out[starts[me] : starts[me]+counts[me]]
			}
			for i := range block {
				block[i] = float64(me*100 + i)
			}
			gathered[me] = g.AllGatherVInto(block, counts, out)
			data := make([]float64, total)
			for j := range data {
				data[j] = float64(me*1000 + j)
			}
			exchanged[me] = g.AllToAllVInto(data, counts, make([]float64, p*counts[me]))
			scratch := data
			if !inPlace {
				scratch = make([]float64, total)
			}
			reduced[me] = g.ReduceScatterVInto(data, counts, make([]float64, counts[me]), scratch)
			if !inPlace {
				for j, v := range data {
					if v != float64(me*1000+j) {
						t.Errorf("rank %d: reduce-scatter changed data[%d] to %v", me, j, v)
						break
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < p; rank++ {
			for m := 0; m < p; m++ {
				for i := 0; i < counts[m]; i++ {
					if got := gathered[rank][starts[m]+i]; got != float64(m*100+i) {
						t.Fatalf("rank %d: gathered word %d of member %d is %v", rank, i, m, got)
					}
				}
			}
			for m := 0; m < p; m++ {
				for i := 0; i < counts[rank]; i++ {
					if got := exchanged[rank][m*counts[rank]+i]; got != float64(m*1000+starts[rank]+i) {
						t.Fatalf("rank %d: word %d of member %d's chunk is %v", rank, i, m, got)
					}
				}
			}
			for i, v := range reduced[rank] {
				if want := float64(1000*p*(p-1)/2 + p*(starts[rank]+i)); v != want {
					t.Fatalf("rank %d: reduced word %d is %v, want %v", rank, i, v, want)
				}
			}
		}
		for rank, rs := range world.Stats().Ranks {
			rsWords := total - counts[(rank-1+p)%p]
			if alg == Recursive {
				rsWords = halvingRecv(counts, rank)
			}
			if want := float64(total - counts[rank] + (p-1)*counts[rank] + rsWords); rs.WordsRecv != want {
				t.Fatalf("%v counts %v: rank %d received %v words, want %v", alg, counts, rank, rs.WordsRecv, want)
			}
		}
	})
}

// halvingRecv returns the words member me receives in a recursive-halving
// Reduce-Scatter: at each step, the words of the half of the active member
// range it keeps.
func halvingRecv(counts []int, me int) int {
	words, lo, size := 0, 0, len(counts)
	for size > 1 {
		size /= 2
		if me >= lo+size {
			lo += size
		}
		for _, c := range counts[lo : lo+size] {
			words += c
		}
	}
	return words
}
