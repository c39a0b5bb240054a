package lattice

// This file carries the lattice-level statements of the paper's Lemma 1
// (§4.1): lower bounds on individual array access for a processor that
// performs at least a 1/P fraction of an n1×n2×n3 iteration space.

// SatisfiesAccessBounds reports whether the projections of V satisfy the
// Lemma 1 bounds for an n1×n2×n3 space divided among p processors, assuming
// V holds at least a 1/p share of the multiplications. It returns false
// only when V's share is ≥ 1/p yet some projection is below its bound —
// which Lemma 1 proves impossible — so property tests expect true whenever
// the share condition holds.
func SatisfiesAccessBounds(v *Set, n1, n2, n3, p int) bool {
	if n1 <= 0 || n2 <= 0 || n3 <= 0 || p <= 0 {
		return true
	}
	// Exact integer comparisons in the overflow-free style of
	// core.Dims.Validate: for positive integers, x ≥ t/p ⇔ x ≥ ⌈t/p⌉, and
	// a·b > limit ⇔ a > limit/b under integer division, so no product is
	// formed before it is known to fit and none of the rational bounds
	// n1·n2/p, n2·n3/p, n1·n3/p is rounded through float64.
	const maxInt64 = int64(^uint64(0) >> 1)
	a, b, c := int64(n1), int64(n2), int64(n3)
	if a > maxInt64/b || b > maxInt64/c || a > maxInt64/c || a*b > maxInt64/c {
		// The iteration space overflows int64, so no materialized Set
		// reaches a 1/p share of it; Lemma 1 is vacuous. (The old float64
		// comparison wrapped the product here and could answer false.)
		return true
	}
	ceilDiv := func(t int64) int64 { return (t-1)/int64(p) + 1 }
	if int64(v.Len()) < ceilDiv(a*b*c) {
		// The processor performs less than 1/p of the work; Lemma 1 is
		// silent about it.
		return true
	}
	pa, pb, pc := v.Projections()
	return int64(pa) >= ceilDiv(a*b) && int64(pb) >= ceilDiv(b*c) && int64(pc) >= ceilDiv(a*c)
}
