package matrix

import (
	"math"
	"testing"
)

func TestStrassenFlops(t *testing.T) {
	// levels=0: classical n³.
	if StrassenFlops(8, 0) != 512 {
		t.Fatalf("flops(8,0) = %v", StrassenFlops(8, 0))
	}
	// One level: 7·(n/2)³ = 7/8 of classical.
	if got, want := StrassenFlops(8, 1), 7.0*64; got != want {
		t.Fatalf("flops(8,1) = %v, want %v", got, want)
	}
	// Full recursion on n=2^L: 7^L, the n^{log2 7} law.
	if got, want := StrassenFlops(8, 3), math.Pow(7, 3); got != want {
		t.Fatalf("flops(8,3) = %v, want %v", got, want)
	}
	// Strassen beats classical asymptotically.
	if StrassenFlops(1024, 5) >= StrassenFlops(1024, 0) {
		t.Fatal("recursion should reduce multiplications")
	}
}
