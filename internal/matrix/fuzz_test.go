package matrix

import "testing"

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
