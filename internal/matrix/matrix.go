// Package matrix provides the dense linear-algebra substrate used by the
// parallel matrix multiplication simulator: a row-major dense matrix type,
// one blocked sequential multiplication kernel, balanced block
// partitioning of index ranges (the distribution logic used by every
// distributed algorithm), and small utilities (comparisons, sub-block
// copies).
//
// The package is deliberately self-contained and uses only the standard
// library, playing the role that a BLAS implementation plays in the paper's
// experimental setting: it supplies the local computation whose communication
// the rest of the repository measures and bounds.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Dense values returned by New share
// no storage with their inputs; views are created explicitly via Slice-like
// helpers that document their aliasing.
type Dense struct {
	rows, cols int
	// stride is the distance in Data between vertically adjacent elements;
	// stride == cols for freshly allocated matrices, but sub-matrix views
	// keep the parent's stride.
	stride int
	data   []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: make([]float64, r*c)}
}

// Wrap returns an r×c matrix value backed directly by data (no copy), which
// must hold exactly r*c elements in row-major order. The matrix aliases
// data: writes through either are visible in both, and the caller must keep
// data alive (and unrecycled) for the matrix's lifetime. Because Wrap
// returns a value rather than a pointer, hot paths can wrap pooled buffers
// without heap allocation.
func Wrap(r, c int, data []float64) Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: Wrap got %d elements for %dx%d", len(data), r, c))
	}
	return Dense{rows: r, cols: c, stride: c, data: data}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Size returns the number of elements (rows × cols).
func (m *Dense) Size() int { return m.rows * m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.stride+j]
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns the i'th row as a slice. For contiguous matrices (and all
// views) the returned slice aliases the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.stride : i*m.stride+m.cols]
}

// View returns an r×c sub-matrix view starting at (i, j). The view aliases
// the receiver's storage: writes through the view are visible in m.
func (m *Dense) View(i, j, r, c int) *Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.rows || j+c > m.cols {
		panic(fmt.Sprintf("matrix: view (%d,%d)+%dx%d out of range for %dx%d", i, j, r, c, m.rows, m.cols))
	}
	return &Dense{rows: r, cols: c, stride: m.stride, data: m.data[i*m.stride+j:]}
}

// Clone returns a deep copy of m with contiguous storage.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m; dimensions must match exactly.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("matrix: CopyFrom shape mismatch %dx%d <- %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Pack returns the elements of m in row-major order as a fresh contiguous
// slice. It is the serialization used when a matrix block travels through
// the simulated network.
func (m *Dense) Pack() []float64 {
	out := make([]float64, 0, m.rows*m.cols)
	for i := 0; i < m.rows; i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// PackInto writes the elements of m in row-major order into dst, which
// must hold exactly Rows×Cols elements, and returns dst. It is the
// allocation-free variant of Pack for callers that recycle serialization
// buffers.
func (m *Dense) PackInto(dst []float64) []float64 {
	if len(dst) != m.rows*m.cols {
		panic(fmt.Sprintf("matrix: PackInto got %d elements for %dx%d", len(dst), m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		copy(dst[i*m.cols:(i+1)*m.cols], m.Row(i))
	}
	return dst
}

// PackRangeInto writes words [lo, hi) of m's row-major order into dst,
// which must hold exactly hi−lo elements, and returns dst: one owner's
// share of a block split by packed word ranges, serialized without packing
// the rest of the block.
func (m *Dense) PackRangeInto(dst []float64, lo, hi int) []float64 {
	if lo < 0 || hi < lo || hi > m.rows*m.cols || len(dst) != hi-lo {
		panic(fmt.Sprintf("matrix: PackRangeInto got %d elements for words [%d, %d) of %dx%d", len(dst), lo, hi, m.rows, m.cols))
	}
	for k := lo; k < hi; {
		i, j := k/m.cols, k%m.cols
		k += copy(dst[k-lo:], m.data[i*m.stride+j:i*m.stride+min(m.cols, j+hi-k)])
	}
	return dst
}

// Unpack fills m from a row-major slice produced by Pack. The slice must
// hold exactly Rows×Cols elements.
func (m *Dense) Unpack(data []float64) {
	if len(data) != m.rows*m.cols {
		panic(fmt.Sprintf("matrix: Unpack got %d elements for %dx%d", len(data), m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), data[i*m.cols:(i+1)*m.cols])
	}
}

// Scale multiplies every element of m by s in place.
func (m *Dense) Scale(s float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// AddInto accumulates src into m element-wise; shapes must match.
func (m *Dense) AddInto(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("matrix: AddInto shape mismatch %dx%d += %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	for i := 0; i < m.rows; i++ {
		dst, s := m.Row(i), src.Row(i)
		for j := range dst {
			dst[j] += s[j]
		}
	}
}

// Equal reports whether m and other have identical shape and all elements
// within tol of each other.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		a, b := m.Row(i), other.Row(i)
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and other, which must have the same shape.
func (m *Dense) MaxAbsDiff(other *Dense) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("matrix: MaxAbsDiff shape mismatch %dx%d vs %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	max := 0.0
	for i := 0; i < m.rows; i++ {
		a, b := m.Row(i), other.Row(i)
		for j := range a {
			if d := math.Abs(a[j] - b[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// String renders small matrices for debugging; large matrices are elided.
func (m *Dense) String() string {
	const limit = 8
	if m.rows > limit || m.cols > limit {
		return fmt.Sprintf("Dense{%dx%d}", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%8.3f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
