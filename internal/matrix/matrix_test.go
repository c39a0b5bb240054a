package matrix

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Size() != 12 {
		t.Fatalf("shape = %dx%d size %d", m.Rows(), m.Cols(), m.Size())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	if got := m.At(0, 1); got != 3.5 {
		t.Fatalf("At(0,1) = %v, want 3.5", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(5) },
		func() { m.View(1, 1, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestNewFromSliceAndPackRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromSlice(2, 3, data)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	packed := m.Pack()
	m2 := New(2, 3)
	m2.Unpack(packed)
	if !m.Equal(m2, 0) {
		t.Fatal("pack/unpack round trip changed values")
	}
}

func TestViewAliasesParent(t *testing.T) {
	m := Indexed(4, 5)
	v := m.View(1, 2, 2, 3)
	if v.At(0, 0) != m.At(1, 2) {
		t.Fatalf("view (0,0) = %v, want %v", v.At(0, 0), m.At(1, 2))
	}
	v.Set(1, 1, -99)
	if m.At(2, 3) != -99 {
		t.Fatal("write through view not visible in parent")
	}
	// Pack of a view must be row-major of just the view.
	p := v.Pack()
	if len(p) != 6 || p[4] != -99 {
		t.Fatalf("view pack = %v", p)
	}
}

// TestPackRangeIntoMatchesPack packs every word range of a strided view
// and of a contiguous matrix and checks each against the same range of
// the full row-major pack; a destination of the wrong length, or a range
// outside the matrix, panics.
func TestPackRangeIntoMatchesPack(t *testing.T) {
	for _, m := range []*Dense{Indexed(5, 6).View(1, 2, 3, 4), Indexed(2, 7)} {
		full := m.Pack()
		for lo := 0; lo <= len(full); lo++ {
			for hi := lo; hi <= len(full); hi++ {
				if got := m.PackRangeInto(make([]float64, hi-lo), lo, hi); !slices.Equal(got, full[lo:hi]) {
					t.Fatalf("%dx%d words [%d, %d) packed %v, want %v", m.Rows(), m.Cols(), lo, hi, got, full[lo:hi])
				}
			}
		}
	}
	m := Indexed(3, 3)
	for _, fn := range []func(){
		func() { m.PackRangeInto(make([]float64, 2), 1, 4) },
		func() { m.PackRangeInto(make([]float64, 2), 8, 10) },
		func() { m.PackRangeInto(nil, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewFromSlice(1, 3, []float64{1, 2, 3})
	b := NewFromSlice(1, 3, []float64{1, 0.5, 3})
	if got := a.MaxAbsDiff(b); got != 1.5 {
		t.Fatalf("MaxAbsDiff = %v, want 1.5", got)
	}
}

func TestMulAgainstNaive(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 1, 9}, {64, 64, 64},
		{65, 33, 17}, {100, 3, 100}, {3, 100, 3},
	}
	for _, s := range shapes {
		a := Random(s.m, s.n, uint64(s.m*1000+s.n))
		b := Random(s.n, s.k, uint64(s.n*1000+s.k))
		want := MulNaive(a, b)
		if got := Mul(a, b); !got.Equal(want, 1e-9) {
			t.Fatalf("Mul mismatch for %dx%dx%d: max diff %g", s.m, s.n, s.k, got.MaxAbsDiff(want))
		}
	}
}

func TestMulIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		a := Random(6, 6, seed)
		id := New(6, 6)
		for i := 0; i < 6; i++ {
			id.Set(i, i, 1)
		}
		return Mul(a, id).Equal(a, 1e-12) && Mul(id, a).Equal(a, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := Random(4, 5, 1)
	b := Random(5, 6, 2)
	c := Random(4, 6, 3)
	orig := Random(4, 6, 3) // c's entries before MulAdd
	MulAdd(c, a, b)
	prod := MulNaive(a, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			want := orig.At(i, j) + prod.At(i, j)
			if math.Abs(c.At(i, j)-want) > 1e-9 {
				t.Fatalf("MulAdd (%d,%d) = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestMulIntoOverwritesDirtyDestination(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {4, 5, 6}, {65, 33, 17},
		// k > mulJBlock exercises the j-tiled path across a block boundary.
		{8, 40, 600},
	}
	for _, s := range shapes {
		a := Random(s.m, s.n, uint64(s.m*100+s.n))
		b := Random(s.n, s.k, uint64(s.n*100+s.k))
		want := Mul(a, b)
		c := Random(s.m, s.k, 99) // dirty destination must be ignored
		MulIntoVal(*c, *a, *b, 0)
		// Bit-identical to Mul: the tiling must not reorder any summation.
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.k; j++ {
				if c.At(i, j) != want.At(i, j) {
					t.Fatalf("MulIntoVal (%d,%d) = %v, Mul gives %v (shape %dx%dx%d)",
						i, j, c.At(i, j), want.At(i, j), s.m, s.n, s.k)
				}
			}
		}
		if !c.Equal(MulNaive(a, b), 1e-9) {
			t.Fatalf("MulIntoVal diverges from naive oracle for %dx%dx%d", s.m, s.n, s.k)
		}
	}
}

func TestMulIntoValMatchesMulInto(t *testing.T) {
	a := Random(20, 30, 5)
	b := Random(30, 40, 6)
	want := Mul(a, b)
	buf := make([]float64, 20*40)
	for i := range buf {
		buf[i] = -1 // dirty
	}
	c := Wrap(20, 40, buf)
	MulIntoVal(c, Wrap(20, 30, a.Pack()), Wrap(30, 40, b.Pack()), 0)
	if !c.Equal(want, 0) {
		t.Fatalf("MulIntoVal mismatch: max diff %g", c.MaxAbsDiff(want))
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(4, 2))
}

// BenchmarkMulInto measures the tiled local kernel that backs the simulated
// ranks' local compute; sizes straddle the mulJBlock boundary so the j-tiled
// path is exercised.
func BenchmarkMulInto(b *testing.B) {
	for _, n := range []int{128, 384, 768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := Random(n, n, 1)
			y := Random(n, n, 2)
			c := New(n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulIntoVal(*c, *x, *y, 0)
			}
		})
	}
}

func TestPartitionBalanced(t *testing.T) {
	cases := []struct{ n, p int }{{10, 3}, {10, 10}, {10, 1}, {3, 7}, {0, 4}, {100, 7}}
	for _, c := range cases {
		segs := Partition(c.n, c.p)
		if len(segs) != c.p {
			t.Fatalf("Partition(%d,%d) produced %d segments", c.n, c.p, len(segs))
		}
		total, prev := 0, 0
		minLen, maxLen := c.n+1, -1
		for i, s := range segs {
			if s.Lo != prev {
				t.Fatalf("Partition(%d,%d): segment %d starts at %d, want %d", c.n, c.p, i, s.Lo, prev)
			}
			if s.Len() < 0 {
				t.Fatalf("negative segment %v", s)
			}
			if s.Len() < minLen {
				minLen = s.Len()
			}
			if s.Len() > maxLen {
				maxLen = s.Len()
			}
			total += s.Len()
			prev = s.Hi
		}
		if total != c.n {
			t.Fatalf("Partition(%d,%d) covers %d indices", c.n, c.p, total)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("Partition(%d,%d) unbalanced: min %d max %d", c.n, c.p, minLen, maxLen)
		}
	}
}

func TestPartSizeStartAgreeWithPartition(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		segs := Partition(n, p)
		counts := PartSizes(make([]int, p), n)
		for i, s := range segs {
			if PartSize(n, p, i) != s.Len() || PartStart(n, p, i) != s.Lo || counts[i] != s.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBlockViewTilesMatrix: the blocks of a balanced partition, copied
// back at their offsets, rebuild the matrix, and each one aliases it.
func TestBlockViewTilesMatrix(t *testing.T) {
	m := Indexed(10, 13)
	out := New(10, 13)
	pr, pc := 3, 4
	for i := 0; i < pr; i++ {
		for j := 0; j < pc; j++ {
			blk := BlockView(m, pr, pc, i, j)
			out.View(PartStart(10, pr, i), PartStart(13, pc, j), blk.Rows(), blk.Cols()).Unpack(blk.Pack())
			if &blk.Row(0)[0] != &m.Row(PartStart(10, pr, i))[PartStart(13, pc, j)] {
				t.Fatalf("block (%d, %d) does not alias the matrix", i, j)
			}
		}
	}
	if !out.Equal(m, 0) {
		t.Fatal("reassembling blocks did not reproduce the matrix")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(8, 8, 42)
	b := Random(8, 8, 42)
	c := Random(8, 8, 43)
	if !a.Equal(b, 0) {
		t.Fatal("same seed produced different matrices")
	}
	if a.Equal(c, 0) {
		t.Fatal("different seeds produced identical matrices")
	}
	for i := 0; i < 8; i++ {
		for _, v := range a.Row(i) {
			if v < -1 || v >= 1 {
				t.Fatalf("Random value %v outside [-1,1)", v)
			}
		}
	}
}

func TestIndexedEncodesPosition(t *testing.T) {
	m := Indexed(3, 4)
	if m.At(2, 3) != 12 || m.At(0, 0) != 1 {
		t.Fatalf("Indexed values wrong: %v %v", m.At(0, 0), m.At(2, 3))
	}
}

func TestZero(t *testing.T) {
	m := Indexed(3, 3)
	m.Zero()
	if m.MaxAbsDiff(New(3, 3)) != 0 {
		t.Fatal("Zero left nonzero elements")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	if s := New(2, 2).String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	if s := New(100, 100).String(); s != "Dense{100x100}" {
		t.Fatalf("large matrix String = %q", s)
	}
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.stride+j] = v
}

// NewFromSlice returns an r×c matrix backed by a copy of data, which must
// have exactly r*c elements in row-major order.
func NewFromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: NewFromSlice got %d elements for %dx%d", len(data), r, c))
	}
	d := New(r, c)
	copy(d.data, data)
	return d
}

// MulNaive is the unblocked triple loop, kept as an independent oracle for
// testing the optimized kernels.
func MulNaive(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			sum := 0.0
			for k := 0; k < a.cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

// Segment is a half-open index range [Lo, Hi): one part of a balanced 1D
// block partition.
type Segment struct {
	Lo, Hi int
}

// Len returns the number of indices in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// Partition materializes the split PartSize describes: [0, n) in p
// contiguous segments whose lengths differ by at most one. It is the
// oracle the partition tests hold PartSize, PartStart and PartSizes to.
func Partition(n, p int) []Segment {
	if n < 0 || p <= 0 {
		panic(fmt.Sprintf("matrix: Partition(%d, %d)", n, p))
	}
	segs := make([]Segment, p)
	lo := 0
	for i := range segs {
		hi := lo + PartSize(n, p, i)
		segs[i] = Segment{Lo: lo, Hi: hi}
		lo = hi
	}
	return segs
}
