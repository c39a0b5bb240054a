package matrix

// StrassenFlops returns the number of scalar multiplications Strassen
// performs for an n×n×n product with the given recursion depth:
// 7^levels · (n/2^levels)³ — the quantity whose reduction lowers the
// fast-matmul communication bound.
func StrassenFlops(n, levels int) float64 {
	base := float64(n) / float64(int(1)<<levels)
	f := base * base * base
	for i := 0; i < levels; i++ {
		f *= 7
	}
	return f
}
