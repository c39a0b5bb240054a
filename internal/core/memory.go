package core

import "math"

// This file implements the §6.2 limited-memory analysis: the interplay
// between Theorem 3's memory-independent bound and the classical
// memory-dependent bound with leading term 2·mnk/(P·sqrt(M))
// (Smith et al. 2019; Kwasniewski et al. 2019; Olivry et al. 2020).

// MemoryDependentLeading returns the leading term of the memory-dependent
// communication lower bound, 2·mnk/(P·sqrt(M)), for local memory size M
// words per processor.
func MemoryDependentLeading(d Dims, p int, mem float64) float64 {
	return 2 * d.Flops() / (float64(p) * math.Sqrt(mem))
}

// MinLocalMemory returns (mn + mk + nk)/P, the smallest local memory that
// can hold a 1/P share of the inputs and output — a hard floor on M for
// any algorithm meeting Theorem 3's one-copy assumptions.
func MinLocalMemory(d Dims, p int) float64 {
	return d.InputOutputWords() / float64(p)
}

// CrossoverP returns the processor count below which (and above mn/k²) the
// memory-dependent bound dominates the Case 3 memory-independent bound for
// memory M: the §6.2 threshold P = (8/27)·mnk/M^{3/2}. Up to it the
// memory-dependent bound binds, and its total communication P·(bound) is
// constant, which allows perfect strong scaling; beyond it the
// memory-independent bound, which decays only as P^{-2/3}, binds, and
// perfect strong scaling must end (Ballard et al. 2012b, §2.3).
func CrossoverP(d Dims, mem float64) float64 {
	return 8.0 / 27.0 * d.Flops() / math.Pow(mem, 1.5)
}

// CriticalMemory returns M* = (4/9)·(mnk/P)^{2/3}, the memory size below
// which the memory-dependent bound dominates in Case 3 (equivalently, the
// memory at which Algorithm 1's 3D footprint no longer fits — §6.2).
func CriticalMemory(d Dims, p int) float64 {
	return 4.0 / 9.0 * math.Pow(d.Flops()/float64(p), 2.0/3.0)
}

// BindingBound returns the larger of the memory-independent bound D of
// Theorem 3 and the memory-dependent leading-term bound for the instance,
// along with which one binds.
func BindingBound(d Dims, p int, mem float64) (bound float64, memoryDependent bool) {
	return Binding(D(d, p), MemoryDependentLeading(d, p, mem))
}

// Binding returns the larger of the footprint dd (D of Theorem 3) and the
// memory-dependent bound md, and whether md is the larger.
func Binding(dd, md float64) (bound float64, memoryDependent bool) {
	if md > dd {
		return md, true
	}
	return dd, false
}
