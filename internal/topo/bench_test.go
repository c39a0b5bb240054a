package topo

import (
	"fmt"
	"testing"
)

// benchFabrics names one spec per fabric kind at each benchmarked rank
// count: near-cubic tori, full-bisection fat-trees, and 64-rank nodes.
func benchFabrics(p int) []string {
	switch p {
	case 64:
		return []string{"twolevel=8", "torus=4x4x4", "fattree=4x3"}
	case 1024:
		return []string{"twolevel=32", "torus=8x8x16", "fattree=4x5"}
	case 4096:
		return []string{"twolevel=64", "torus=16x16x16", "fattree=4x6"}
	case 1 << 16:
		return []string{"twolevel=64", "torus=16x16x16x16", "fattree=4x8"}
	default:
		return nil
	}
}

// BenchmarkNewNetwork measures charge-oracle construction across fabrics
// and rank counts: the rank placement and the O(links) analytic flow pass.
func BenchmarkNewNetwork(b *testing.B) {
	for _, p := range []int{64, 1024, 4096, 1 << 16} {
		for _, spec := range benchFabrics(p) {
			tp, err := Parse(spec, p, Link{Alpha: 1, Beta: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/P=%d", spec, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := NewNetwork(tp, Contiguous); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkChargeScaling measures the per-message pricing hot path, an
// O(hops) arithmetic route walk. The simulator calls this once per
// message, so ns/op here bounds topology-aware simulation throughput.
func BenchmarkChargeScaling(b *testing.B) {
	for _, p := range []int{1024, 1 << 16} {
		for _, spec := range benchFabrics(p) {
			tp, err := Parse(spec, p, Link{Alpha: 1, Beta: 1})
			if err != nil {
				b.Fatal(err)
			}
			n, err := NewNetwork(tp, Contiguous)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/P=%d", spec, p), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				s, d := 0, 1
				for i := 0; i < b.N; i++ {
					a, bb := n.Charge(s, d)
					sink += a + bb
					s = (s + 479) % p // odd strides cycle through pairs
					d = (d + 281) % p
					if s == d {
						d = (d + 1) % p
					}
				}
				benchSink = sink
			})
		}
	}
}

var benchSink float64
