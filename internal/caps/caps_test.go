package caps

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
)

func TestLeafBlocksOrderAndCount(t *testing.T) {
	m := matrix.Indexed(4, 4)
	leaves := leafBlocks(m, 1)
	if len(leaves) != 4 {
		t.Fatalf("%d leaves", len(leaves))
	}
	// NW leaf holds element (0,0); SE leaf holds (3,3).
	if leaves[0].At(0, 0) != m.At(0, 0) || leaves[3].At(1, 1) != m.At(3, 3) {
		t.Fatal("leaf order wrong")
	}
	if got := len(leafBlocks(m, 2)); got != 16 {
		t.Fatalf("depth-2 leaves = %d", got)
	}
}

func TestExtractAssembleRoundTrip(t *testing.T) {
	for _, c := range []struct{ n, d, q int }{
		{8, 1, 7}, {8, 2, 49}, {12, 1, 7}, {16, 0, 1},
	} {
		m := matrix.Random(c.n, c.n, uint64(c.n))
		shares := make([][]float64, c.q)
		for r := 0; r < c.q; r++ {
			shares[r] = extractShare(m, c.d, c.q, r)
		}
		got := assemble(c.n, c.d, c.q, shares)
		if !got.Equal(m, 0) {
			t.Fatalf("n=%d d=%d q=%d: round trip failed", c.n, c.d, c.q)
		}
	}
}

func TestMultiplySingleRank(t *testing.T) {
	a := matrix.Random(6, 6, 1)
	b := matrix.Random(6, 6, 2)
	res, err := Multiply(a, b, 0, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.Equal(matrix.Mul(a, b), 1e-9) {
		t.Fatal("wrong product at P=1")
	}
	if res.CommCost() != 0 {
		t.Fatal("P=1 should not communicate")
	}
}

func TestMultiplyP7(t *testing.T) {
	for _, n := range []int{8, 12, 16, 22} {
		a := matrix.Random(n, n, uint64(n))
		b := matrix.Random(n, n, uint64(n)+1)
		res, err := Multiply(a, b, 1, machine.BandwidthOnly())
		if err != nil {
			t.Fatal(err)
		}
		if diff := res.C.MaxAbsDiff(matrix.Mul(a, b)); diff > 1e-9*float64(n) {
			t.Fatalf("n=%d: wrong product (max diff %g)", n, diff)
		}
	}
}

func TestMultiplyP49(t *testing.T) {
	for _, n := range []int{16, 28} {
		a := matrix.Random(n, n, uint64(n)*3)
		b := matrix.Random(n, n, uint64(n)*3+1)
		res, err := Multiply(a, b, 2, machine.BandwidthOnly())
		if err != nil {
			t.Fatal(err)
		}
		if diff := res.C.MaxAbsDiff(matrix.Mul(a, b)); diff > 1e-8*float64(n) {
			t.Fatalf("n=%d P=49: wrong product (max diff %g)", n, diff)
		}
	}
}

func TestMultiplyValidation(t *testing.T) {
	sq := matrix.Random(8, 8, 1)
	if _, err := Multiply(matrix.Random(8, 4, 1), matrix.Random(4, 8, 2), 1, machine.BandwidthOnly()); err == nil {
		t.Fatal("expected square requirement error")
	}
	if _, err := Multiply(matrix.Random(6, 6, 1), matrix.Random(6, 6, 2), 2, machine.BandwidthOnly()); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := Multiply(sq, sq, -1, machine.BandwidthOnly()); err == nil {
		t.Fatal("expected negative levels error")
	}
	if _, err := Multiply(sq, sq, 64, machine.BandwidthOnly()); !errors.Is(err, core.ErrGridMismatch) {
		t.Fatalf("64 levels: err = %v, want ErrGridMismatch", err)
	}
}

// TestMultiplyTooManyRanks: a level count whose 7^levels ranks exceed the
// simulator's capacity is refused with ErrTooManyRanks instead of a panic.
func TestMultiplyTooManyRanks(t *testing.T) {
	// 4096 = 2^12 is the smallest n that 12 levels divide. The run is
	// refused before the matrix is read, so its zero pages stay untouched.
	a := matrix.New(4096, 4096)
	if _, err := Multiply(a, a, 12, machine.BandwidthOnly()); !errors.Is(err, core.ErrTooManyRanks) {
		t.Fatalf("12 levels: err = %v, want ErrTooManyRanks", err)
	}
}

// TestMeasuredMatchesCountingTwin: the simulator's per-rank received words
// equal the pure counting twin's prediction exactly.
func TestMeasuredMatchesCountingTwin(t *testing.T) {
	for _, c := range []struct{ n, levels int }{{8, 1}, {16, 1}, {16, 2}, {28, 2}} {
		a := matrix.Random(c.n, c.n, 5)
		b := matrix.Random(c.n, c.n, 6)
		res, err := Multiply(a, b, c.levels, machine.BandwidthOnly())
		if err != nil {
			t.Fatal(err)
		}
		pred := PredictedVolumes(c.n, c.levels)
		for r, rs := range res.Stats.Ranks {
			if math.Abs(rs.WordsRecv-pred[r]) > 1e-9 {
				t.Fatalf("n=%d levels=%d rank %d: measured %v, predicted %v",
					c.n, c.levels, r, rs.WordsRecv, pred[r])
			}
		}
	}
}

// TestStrassenFlopCount: the total multiplications are 7^L·(n/2^L)³, below
// the classical n³.
func TestStrassenFlopCount(t *testing.T) {
	n, levels := 16, 2
	a := matrix.Random(n, n, 7)
	b := matrix.Random(n, n, 8)
	res, err := Multiply(a, b, levels, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	mults := 0.0
	for _, rs := range res.Stats.Ranks {
		mults += rs.Flops
	}
	want := matrix.StrassenFlops(n, levels)
	// Flops include the O(n²) combination additions; the multiplication
	// term must match and dominate.
	if mults < want {
		t.Fatalf("total flops %v below the multiplication count %v", mults, want)
	}
	if mults > want+float64(10*n*n*49) {
		t.Fatalf("total flops %v too far above multiplications %v", mults, want)
	}
	if want >= float64(n)*float64(n)*float64(n) {
		t.Fatal("Strassen should do fewer multiplications than classical")
	}
}

// TestCAPSBeatsClassicalBoundShape: at P = 49 the measured CAPS volume
// sits near the fast leading term and the classical-vs-fast ordering is as
// §2.3 predicts: the fast floor is lower than the classical Case 3 bound.
func TestCAPSBeatsClassicalBoundShape(t *testing.T) {
	n, levels, p := 56, 2, 49
	a := matrix.Random(n, n, 9)
	b := matrix.Random(n, n, 10)
	res, err := Multiply(a, b, levels, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	fast := core.FastMatmulLeading(n, p, core.OmegaStrassen)
	classical := 3 * core.LeadingTerm(core.Square(n), p)
	if fast >= classical {
		t.Fatalf("fast floor %v not below classical bound %v", fast, classical)
	}
	// CAPS volume is a small constant times the fast term (BFS constant).
	ratio := res.CommCost() / fast
	if ratio < 1 || ratio > 8 {
		t.Fatalf("CAPS volume %v is %.2fx the fast term %v — expected a small constant", res.CommCost(), ratio, fast)
	}
}

// TestCAPSScalesLikeFastExponent: doubling levels (P ×49) scales the
// per-processor volume like P^{-2/ω0}, not the classical P^{-2/3}.
func TestCAPSScalesLikeFastExponent(t *testing.T) {
	n := 56
	a := matrix.Random(n, n, 11)
	b := matrix.Random(n, n, 12)
	r1, err := Multiply(a, b, 1, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Multiply(a, b, 2, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	gotRatio := r1.CommCost() / r2.CommCost()
	fastRatio := core.FastMatmulLeading(n, 7, core.OmegaStrassen) / core.FastMatmulLeading(n, 49, core.OmegaStrassen)
	if math.Abs(gotRatio-fastRatio)/fastRatio > 0.6 {
		t.Fatalf("volume ratio P7/P49 = %.3f, fast-exponent prediction %.3f", gotRatio, fastRatio)
	}
}
