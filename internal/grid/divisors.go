package grid

import (
	"fmt"
	"slices"
)

// maxDivisors is the most divisors any P ≤ 2^24 has: 14414400 =
// 2^6·3^2·5^2·7·11·13 has 504. Up to that P, the service's search limit,
// the searches keep the divisor list in an array on their own stack.
const maxDivisors = 504

// appendDivisors appends the divisors of n > 0 to dst in ascending order.
// It factors n by trial division over 2, 3 and the 6k±1 wheel and expands
// the factorization, so it costs about √n/3 divisions plus d(n) products.
// It allocates only when dst lacks room for all d(n) divisors, and then
// once.
func appendDivisors(dst []int, n int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("grid: divisors of %d", n))
	}
	// No int has more than 15 distinct prime factors: the product of the
	// first 16 primes exceeds 2^63.
	var primes, exps [15]int
	k := 0
	m := n
	divide := func(f int) {
		if m%f != 0 {
			return
		}
		e := 0
		for m%f == 0 {
			m /= f
			e++
		}
		primes[k], exps[k] = f, e
		k++
	}
	divide(2)
	divide(3)
	for f := 5; uint64(f)*uint64(f) <= uint64(m); f += 6 {
		divide(f)
		divide(f + 2)
	}
	if m > 1 {
		primes[k], exps[k] = m, 1
		k++
	}
	count := 1
	for _, e := range exps[:k] {
		count *= e + 1
	}
	dst = slices.Grow(dst, count)
	base := len(dst)
	dst = append(dst, 1)
	for i, q := range primes[:k] {
		have := len(dst)
		qe := 1
		for e := 0; e < exps[i]; e++ {
			qe *= q
			for j := base; j < have; j++ {
				dst = append(dst, dst[j]*qe)
			}
		}
	}
	slices.Sort(dst[base:])
	return dst
}
