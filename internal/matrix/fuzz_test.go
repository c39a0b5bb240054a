package matrix

import "testing"

// FuzzStrassenMatchesClassical fuzzes shapes, seeds, and recursion depths:
// Strassen must agree with the classical product everywhere.
func FuzzStrassenMatchesClassical(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(2), uint64(1))
	f.Add(uint8(7), uint8(9), uint8(5), uint8(1), uint64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint64(3))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw, lRaw uint8, seed uint64) {
		m := int(mRaw%24) + 1
		k := int(kRaw%24) + 1
		n := int(nRaw%24) + 1
		levels := int(lRaw % 4)
		a := Random(m, k, seed)
		b := Random(k, n, seed+1)
		want := Mul(a, b)
		got := MulStrassen(a, b, levels)
		if diff := got.MaxAbsDiff(want); diff > 1e-9*float64(k+1)*float64(uint(1)<<uint(levels)) {
			t.Fatalf("%dx%dx%d levels=%d: max diff %g", m, k, n, levels, diff)
		}
	})
}

// FuzzPartitionInvariants fuzzes the balanced partition helpers.
func FuzzPartitionInvariants(f *testing.F) {
	f.Add(uint16(10), uint8(3))
	f.Add(uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, nRaw uint16, pRaw uint8) {
		n := int(nRaw % 1000)
		p := int(pRaw%32) + 1
		segs := Partition(n, p)
		counts := PartSizes(make([]int, p), n)
		total := 0
		for i, s := range segs {
			if s.Lo != PartStart(n, p, i) || s.Len() != PartSize(n, p, i) || s.Len() != counts[i] {
				t.Fatal("PartStart/PartSize/PartSizes disagree with Partition")
			}
			total += s.Len()
		}
		if total != n {
			t.Fatalf("partition covers %d of %d", total, n)
		}
	})
}
