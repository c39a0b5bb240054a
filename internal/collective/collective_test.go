package collective

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/machine"
)

// newWorld creates a BandwidthOnly world of p ranks, failing the test on
// construction errors.
func newWorld(t testing.TB, p int) *machine.World {
	t.Helper()
	w, err := machine.New(p, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newGroup returns rank r's communicator over members, set up by Init.
func newGroup(r *machine.Rank, members []int, tagBase int, alg Algorithm) *Group {
	g := &Group{}
	g.Init(r, members, tagBase, alg)
	return g
}

// runAll executes body on a fresh bandwidth-only world of p ranks with a
// whole-world group using the given algorithm, collecting per-rank results.
func runAll(t *testing.T, p int, alg Algorithm, body func(g *Group) []float64) ([][]float64, machine.WorldStats) {
	t.Helper()
	w := newWorld(t, p)
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	results := make([][]float64, p)
	err := w.Run(func(r *machine.Rank) {
		g := newGroup(r, members, 1, alg)
		results[r.ID()] = body(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, w.Stats()
}

func seqBlock(rank, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(rank*1000 + i)
	}
	return b
}

func TestAllGatherCorrectness(t *testing.T) {
	for _, alg := range []Algorithm{Ring, Recursive, Auto} {
		for _, p := range []int{1, 2, 4, 8} {
			res, stats := runAll(t, p, alg, func(g *Group) []float64 {
				return g.AllGather(seqBlock(g.me, 3))
			})
			want := []float64{}
			for i := 0; i < p; i++ {
				want = append(want, seqBlock(i, 3)...)
			}
			for r := 0; r < p; r++ {
				if !reflect.DeepEqual(res[r], want) {
					t.Fatalf("alg %v p=%d rank %d: %v, want %v", alg, p, r, res[r], want)
				}
			}
			// Bandwidth: every rank receives exactly (p-1)*3 words.
			for r, rs := range stats.Ranks {
				if rs.WordsRecv != float64((p-1)*3) {
					t.Fatalf("alg %v p=%d rank %d recv %v words, want %d", alg, p, r, rs.WordsRecv, (p-1)*3)
				}
			}
		}
	}
}

func TestAllGatherRingNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		res, stats := runAll(t, p, Auto, func(g *Group) []float64 {
			return g.AllGather(seqBlock(g.me, 2))
		})
		for r := 0; r < p; r++ {
			if len(res[r]) != 2*p {
				t.Fatalf("p=%d rank %d result length %d", p, r, len(res[r]))
			}
			for i := 0; i < p; i++ {
				if res[r][2*i] != float64(i*1000) {
					t.Fatalf("p=%d rank %d block %d wrong: %v", p, r, i, res[r][2*i])
				}
			}
		}
		for r, rs := range stats.Ranks {
			if rs.WordsRecv != float64((p-1)*2) {
				t.Fatalf("p=%d rank %d recv %v", p, r, rs.WordsRecv)
			}
		}
	}
}

func TestAllGatherVUnequalCounts(t *testing.T) {
	counts := []int{1, 4, 0, 2}
	for _, alg := range []Algorithm{Ring, Recursive} {
		res, stats := runAll(t, 4, alg, func(g *Group) []float64 {
			return g.AllGatherVInto(seqBlock(g.me, counts[g.me]), counts, make([]float64, sum(counts)))
		})
		var want []float64
		for i, c := range counts {
			want = append(want, seqBlock(i, c)...)
		}
		for r := 0; r < 4; r++ {
			if !reflect.DeepEqual(res[r], want) {
				t.Fatalf("alg %v rank %d: %v, want %v", alg, r, res[r], want)
			}
		}
		// Each rank receives total − own words.
		total := 7
		for r, rs := range stats.Ranks {
			if rs.WordsRecv != float64(total-counts[r]) {
				t.Fatalf("alg %v rank %d recv %v, want %d", alg, r, rs.WordsRecv, total-counts[r])
			}
		}
	}
}

func TestReduceScatterCorrectness(t *testing.T) {
	for _, alg := range []Algorithm{Ring, Recursive, Auto} {
		for _, p := range []int{1, 2, 4, 8} {
			chunk := 3
			res, stats := runAll(t, p, alg, func(g *Group) []float64 {
				// Member j contributes vector with value (j+1) everywhere.
				data := make([]float64, p*chunk)
				for i := range data {
					data[i] = float64(g.me + 1)
				}
				return g.ReduceScatter(data)
			})
			wantVal := float64(p * (p + 1) / 2)
			for r := 0; r < p; r++ {
				if len(res[r]) != chunk {
					t.Fatalf("alg %v p=%d rank %d chunk len %d", alg, p, r, len(res[r]))
				}
				for _, v := range res[r] {
					if v != wantVal {
						t.Fatalf("alg %v p=%d rank %d value %v, want %v", alg, p, r, v, wantVal)
					}
				}
			}
			for r, rs := range stats.Ranks {
				if rs.WordsRecv != float64((p-1)*chunk) {
					t.Fatalf("alg %v p=%d rank %d recv %v, want %d", alg, p, r, rs.WordsRecv, (p-1)*chunk)
				}
			}
		}
	}
}

func TestReduceScatterRingNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 5, 7} {
		res, _ := runAll(t, p, Auto, func(g *Group) []float64 {
			data := make([]float64, p*2)
			for i := range data {
				data[i] = float64(i)
			}
			return g.ReduceScatter(data)
		})
		for r := 0; r < p; r++ {
			for j := 0; j < 2; j++ {
				want := float64(p) * float64(r*2+j)
				if res[r][j] != want {
					t.Fatalf("p=%d rank %d elem %d = %v, want %v", p, r, j, res[r][j], want)
				}
			}
		}
	}
}

func TestReduceScatterVUnequal(t *testing.T) {
	counts := []int{2, 0, 3}
	res, _ := runAll(t, 3, Ring, func(g *Group) []float64 {
		data := []float64{1, 2, 3, 4, 5}
		return g.ReduceScatterV(data, counts)
	})
	if !reflect.DeepEqual(res[0], []float64{3, 6}) {
		t.Fatalf("rank 0: %v", res[0])
	}
	if len(res[1]) != 0 {
		t.Fatalf("rank 1: %v", res[1])
	}
	if !reflect.DeepEqual(res[2], []float64{9, 12, 15}) {
		t.Fatalf("rank 2: %v", res[2])
	}
}

func TestReduceScatterDoesNotMutateInput(t *testing.T) {
	runAll(t, 2, Ring, func(g *Group) []float64 {
		data := []float64{1, 1}
		g.ReduceScatter(data)
		if data[0] != 1 || data[1] != 1 {
			t.Errorf("input mutated: %v", data)
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < p; root += 2 {
			res, _ := runAll(t, p, Auto, func(g *Group) []float64 {
				var data []float64
				if g.me == root {
					data = []float64{3.14, 2.71}
				}
				return g.Bcast(data, root)
			})
			for r := 0; r < p; r++ {
				if !reflect.DeepEqual(res[r], []float64{3.14, 2.71}) {
					t.Fatalf("p=%d root=%d rank %d: %v", p, root, r, res[r])
				}
			}
		}
	}
}

func TestAllToAll(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		res, stats := runAll(t, p, Auto, func(g *Group) []float64 {
			blocks := make([][]float64, p)
			for i := range blocks {
				blocks[i] = []float64{float64(g.me*100 + i)}
			}
			got := g.AllToAll(blocks)
			flat := make([]float64, 0, p)
			for _, b := range got {
				flat = append(flat, b...)
			}
			return flat
		})
		for r := 0; r < p; r++ {
			for i := 0; i < p; i++ {
				if res[r][i] != float64(i*100+r) {
					t.Fatalf("p=%d rank %d from %d = %v, want %v", p, r, i, res[r][i], float64(i*100+r))
				}
			}
		}
		for r, rs := range stats.Ranks {
			if rs.WordsRecv != float64(p-1) {
				t.Fatalf("p=%d rank %d recv %v", p, r, rs.WordsRecv)
			}
		}
	}
}

func TestSubgroupFiberCollectives(t *testing.T) {
	// Only even ranks of a 6-rank world participate; odd ranks do their
	// own group. Mirrors the fiber structure of Algorithm 1.
	w := newWorld(t, 6)
	results := make([][]float64, 6)
	err := w.Run(func(r *machine.Rank) {
		var members []int
		base := 10
		if r.ID()%2 == 0 {
			members = []int{0, 2, 4}
		} else {
			members = []int{1, 3, 5}
			base = 20
		}
		g := newGroup(r, members, base, Auto)
		results[r.ID()] = g.AllGather([]float64{float64(r.ID())})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], []float64{0, 2, 4}) || !reflect.DeepEqual(results[3], []float64{1, 3, 5}) {
		t.Fatalf("fiber gathers wrong: %v / %v", results[0], results[3])
	}
}

func TestGroupValidation(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(r *machine.Rank) {
		if r.ID() == 0 {
			// Not a member.
			defer func() {
				if recover() == nil {
					t.Error("expected panic for non-member")
				}
			}()
			newGroup(r, []int{1}, 0, Auto)
		} else {
			// Duplicate members, adjacent and not.
			for _, members := range [][]int{{1, 1}, {1, 0, 1}} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("expected panic for duplicate member in %v", members)
						}
					}()
					newGroup(r, members, 0, Auto)
				}()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveRequiresPowerOfTwo(t *testing.T) {
	w := newWorld(t, 3)
	err := w.Run(func(r *machine.Rank) {
		g := newGroup(r, []int{0, 1, 2}, 0, Recursive)
		g.AllGather([]float64{1})
	})
	if err == nil {
		t.Fatal("expected error for Recursive on 3 ranks")
	}
}

func TestSingletonGroupOps(t *testing.T) {
	res, stats := runAll(t, 1, Auto, func(g *Group) []float64 {
		a := g.AllGather([]float64{1, 2})
		b := g.ReduceScatter([]float64{3, 4})
		d := g.Bcast([]float64{6}, 0)
		e := g.AllToAll([][]float64{{7}})
		return []float64{a[0], a[1], b[0], b[1], d[0], e[0][0]}
	})
	if !reflect.DeepEqual(res[0], []float64{1, 2, 3, 4, 6, 7}) {
		t.Fatalf("singleton ops: %v", res[0])
	}
	if stats.TotalWordsSent != 0 {
		t.Fatal("singleton group communicated")
	}
}

// TestCollectiveCostFormula pins the §5.1 cost model: All-Gather and
// Reduce-Scatter of w words over p ranks each cost exactly (1 − 1/p)·w
// received words per rank, for both algorithm families.
func TestCollectiveCostFormula(t *testing.T) {
	for _, alg := range []Algorithm{Ring, Recursive} {
		for _, p := range []int{2, 4, 8, 16} {
			blockWords := 12
			gathered := blockWords * p
			_, agStats := runAll(t, p, alg, func(g *Group) []float64 {
				return g.AllGather(make([]float64, blockWords))
			})
			wantAG := (1 - 1/float64(p)) * float64(gathered)
			if math.Abs(agStats.MaxWordsRecv-wantAG) > 1e-9 {
				t.Fatalf("alg %v p=%d allgather cost %v, want %v", alg, p, agStats.MaxWordsRecv, wantAG)
			}
			_, rsStats := runAll(t, p, alg, func(g *Group) []float64 {
				return g.ReduceScatter(make([]float64, gathered))
			})
			if math.Abs(rsStats.MaxWordsRecv-wantAG) > 1e-9 {
				t.Fatalf("alg %v p=%d reduce-scatter cost %v, want %v", alg, p, rsStats.MaxWordsRecv, wantAG)
			}
		}
	}
}

// TestRecursiveFewerMessages verifies the latency ablation: recursive
// doubling uses log₂(p) messages per rank versus the ring's p−1.
func TestRecursiveFewerMessages(t *testing.T) {
	p := 16
	_, ringStats := runAll(t, p, Ring, func(g *Group) []float64 {
		return g.AllGather(make([]float64, 4))
	})
	_, recStats := runAll(t, p, Recursive, func(g *Group) []float64 {
		return g.AllGather(make([]float64, 4))
	})
	if ringStats.Ranks[0].MsgsSent != p-1 {
		t.Fatalf("ring msgs = %d, want %d", ringStats.Ranks[0].MsgsSent, p-1)
	}
	if recStats.Ranks[0].MsgsSent != 4 { // log2(16)
		t.Fatalf("recursive msgs = %d, want 4", recStats.Ranks[0].MsgsSent)
	}
}

// TestEarlyExitDeadlockDetected: a rank returning while a peer still waits
// for its message is reported as a deadlock, not a hang.
func TestEarlyExitDeadlockDetected(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(r *machine.Rank) {
		if r.ID() == 1 {
			r.Recv(0, 9) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error for early rank exit")
	}
}
