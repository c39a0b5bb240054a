// Package hbl generalizes the mathematical core of the repository — the
// Loomis-Whitney product constraint of internal/lattice and the Lemma 2
// water-filling of internal/kkt — from matrix multiplication to arbitrary
// nested-loop array programs, following Christ, Demmel, Knight, Scanlon,
// and Yelick (arXiv 1308.0068).
//
// A Program is a nested loop over indices i_1 … i_d referencing arrays
// A_1 … A_m, where array j is indexed by a subset φ_j of the loop indices
// (matmul: C[i,j] += A[i,k]·B[k,j]). For such programs the discrete
// Hölder-Brascamp-Lieb inequality bounds any finite set V of iteration
// points by the product of its array projections,
//
//	|V| ≤ Π_j |φ_j(V)|^{s_j},
//
// for every s feasible for the HBL linear program
//
//	Σ_{j : i ∈ φ_j} s_j ≥ 1   for every loop index i,   s_j ≥ 0.
//
// Minimizing σ = Σ_j s_j gives the asymptotically best communication
// exponent: a processor performing a 1/P share of the |iteration space| = V
// points has per-array access bounds |φ_j| ≥ (Π_{i∈φ_j} n_i)/P (the Lemma 1
// argument verbatim), and its data footprint is lower-bounded by
//
//	min Σ_j x_j   s.t.   Π_j x_j^{s*_j} ≥ V/P,   x_j ≥ (Π_{i∈φ_j} n_i)/P,
//
// the direct generalization of the paper's Lemma 2, solved by the same
// water-filling (kkt.ProductMin when the positive exponents are equal — the
// matmul/cuboid case — and a weighted variant otherwise). The bound carries
// the same memory-independent case structure: the number of arrays governed
// by the water level generalizes Theorem 3's Case 1/2/3.
//
// Solve computes σ_HBL and the per-array exponents exactly, in rationals,
// with a primal and dual certificate (duality gap zero by construction).
// Program.MemIndependentBound evaluates the constant layer. The d = 3
// matmul program reproduces Theorem 3's constants 1/2/3 exactly, and
// cuboid programs collapse bit-exactly onto internal/extension.
package hbl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// MaxIndices and MaxArrays cap the program size the exact-rational LP
// solver accepts. The simplex is polynomial in practice but the caps keep
// the service's synchronous path bounded; every workload in the program zoo
// is far below them.
const (
	MaxIndices = 16
	MaxArrays  = 16
)

// Array is one array reference of a program: a name and the subset of loop
// indices it is subscripted by (the projection φ_j).
type Array struct {
	// Name identifies the array ("A").
	Name string
	// Indices is the index subset, in subscript order ("i", "k").
	Indices []string
}

// Program is a typed nested-loop array program: loop indices (optionally
// with extents), the arrays referenced with their index subsets, and an
// optional output designation.
type Program struct {
	// Indices names the loop indices, in loop order.
	Indices []string
	// Extents holds the per-index iteration counts, aligned with Indices.
	// Empty means symbolic: exponents can be computed, bounds cannot.
	Extents []int
	// Arrays holds the array references.
	Arrays []Array
	// Output names the array accumulated into; empty designates the last
	// array (the matmul/cuboid convention). The bound itself is symmetric
	// in the arrays — the designation is carried for presentation and for
	// constructors that encode a convention.
	Output string
}

// maxExactProduct mirrors core.Dims.Validate: extent products beyond 2^53
// would silently round in the float64 arithmetic the bounds use.
const maxExactProduct = int64(1) << 53

// Validate reports whether the program is well-formed, wrapping
// core.ErrBadProgram on every failure: indices and arrays must be named,
// unique, and within the solver caps; every array must reference a
// non-empty duplicate-free subset of the declared indices; every index must
// appear in at least one array (otherwise the HBL linear program is
// infeasible — no product of projections bounds the iteration space);
// extents, when given, must align with Indices, be positive, and keep the
// total iteration-space volume within exact float64 range.
func (p Program) Validate() error {
	if len(p.Indices) == 0 {
		return fmt.Errorf("hbl: program has no loop indices: %w", core.ErrBadProgram)
	}
	if len(p.Indices) > MaxIndices {
		return fmt.Errorf("hbl: %d loop indices exceed the limit %d: %w", len(p.Indices), MaxIndices, core.ErrBadProgram)
	}
	if len(p.Arrays) == 0 {
		return fmt.Errorf("hbl: program references no arrays: %w", core.ErrBadProgram)
	}
	if len(p.Arrays) > MaxArrays {
		return fmt.Errorf("hbl: %d arrays exceed the limit %d: %w", len(p.Arrays), MaxArrays, core.ErrBadProgram)
	}
	idx := make(map[string]int, len(p.Indices))
	for i, name := range p.Indices {
		if err := validName(name, "index"); err != nil {
			return err
		}
		if _, dup := idx[name]; dup {
			return fmt.Errorf("hbl: duplicate loop index %q: %w", name, core.ErrBadProgram)
		}
		idx[name] = i
	}
	covered := make([]bool, len(p.Indices))
	arrays := make(map[string]bool, len(p.Arrays))
	for _, a := range p.Arrays {
		if err := validName(a.Name, "array"); err != nil {
			return err
		}
		if arrays[a.Name] {
			return fmt.Errorf("hbl: duplicate array %q: %w", a.Name, core.ErrBadProgram)
		}
		arrays[a.Name] = true
		if len(a.Indices) == 0 {
			return fmt.Errorf("hbl: array %q has no subscripts (a scalar bounds nothing): %w", a.Name, core.ErrBadProgram)
		}
		seen := make(map[string]bool, len(a.Indices))
		for _, name := range a.Indices {
			i, ok := idx[name]
			if !ok {
				return fmt.Errorf("hbl: array %q references unknown index %q: %w", a.Name, name, core.ErrBadProgram)
			}
			if seen[name] {
				return fmt.Errorf("hbl: array %q repeats index %q: %w", a.Name, name, core.ErrBadProgram)
			}
			seen[name] = true
			covered[i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("hbl: index %q appears in no array (HBL linear program infeasible): %w", p.Indices[i], core.ErrBadProgram)
		}
	}
	if p.Output != "" && !arrays[p.Output] {
		return fmt.Errorf("hbl: output %q names no array: %w", p.Output, core.ErrBadProgram)
	}
	if len(p.Extents) > 0 {
		if len(p.Extents) != len(p.Indices) {
			return fmt.Errorf("hbl: %d extents for %d indices: %w", len(p.Extents), len(p.Indices), core.ErrBadProgram)
		}
		// Overflow-free running product, in the style of core.Dims.Validate:
		// for positive integers a·b > limit ⇔ a > limit/b under integer
		// division, so no product is formed before it is known to fit.
		prod := int64(1)
		for i, n := range p.Extents {
			if n <= 0 {
				return fmt.Errorf("hbl: extent of %q must be positive, got %d: %w", p.Indices[i], n, core.ErrBadProgram)
			}
			if int64(n) > maxExactProduct/prod {
				return fmt.Errorf("hbl: iteration-space volume overflows exact float64 range (> 2^53): %w", core.ErrBadProgram)
			}
			prod *= int64(n)
		}
	}
	return nil
}

// validName enforces the token syntax shared by indices and array names.
func validName(name, kind string) error {
	if name == "" {
		return fmt.Errorf("hbl: empty %s name: %w", kind, core.ErrBadProgram)
	}
	if len(name) > 32 {
		return fmt.Errorf("hbl: %s name %q longer than 32 bytes: %w", kind, name, core.ErrBadProgram)
	}
	if strings.ContainsAny(name, "[],*->|= \t\n") {
		return fmt.Errorf("hbl: %s name %q contains reserved characters: %w", kind, name, core.ErrBadProgram)
	}
	return nil
}

// indexOf maps index names to their position. The program must be
// validated.
func (p Program) indexOf() map[string]int {
	m := make(map[string]int, len(p.Indices))
	for i, name := range p.Indices {
		m[name] = i
	}
	return m
}

// OutputIndex returns the position of the output array (the last array when
// Output is empty). The program must be validated.
func (p Program) OutputIndex() int {
	if p.Output == "" {
		return len(p.Arrays) - 1
	}
	for j, a := range p.Arrays {
		if a.Name == p.Output {
			return j
		}
	}
	return len(p.Arrays) - 1
}

// Volume returns Π_i n_i, the number of iteration points, in float64 (exact
// under Validate's 2^53 cap). It panics without extents.
func (p Program) Volume() float64 {
	if len(p.Extents) == 0 {
		panic("hbl: Volume of a program without extents")
	}
	v := 1.0
	for _, n := range p.Extents {
		v *= float64(n)
	}
	return v
}

// ArraySize returns Π_{i∈φ_j} n_i, the one-copy words of array j, in
// float64. The factors multiply in subscript order; all products are exact
// integers under Validate's 2^53 cap, so the order cannot change the value.
func (p Program) ArraySize(j int) float64 {
	if len(p.Extents) == 0 {
		panic("hbl: ArraySize of a program without extents")
	}
	pos := p.indexOf()
	v := 1.0
	for _, name := range p.Arrays[j].Indices {
		v *= float64(p.Extents[pos[name]])
	}
	return v
}

// TotalWords returns Σ_j Π_{i∈φ_j} n_i, the one-copy footprint of all
// arrays. Distinct references to the same underlying data count separately,
// matching the per-reference access bounds the lower bound charges.
func (p Program) TotalWords() float64 {
	t := 0.0
	for j := range p.Arrays {
		t += p.ArraySize(j)
	}
	return t
}

// String renders the program in the ParseProgram syntax:
// "A[i,k]*B[k,j]->C[i,j] | i=9600 k=600 j=2400". Extents are keyed by the
// order indices first appear in the rendered statement — the same order
// ParseProgram assigns — so String∘ParseProgram is the identity on rendered
// text and the rendering doubles as a canonical memoization key.
func (p Program) String() string {
	var b strings.Builder
	out := p.OutputIndex()
	first := true
	for j, a := range p.Arrays {
		if j == out {
			continue
		}
		if !first {
			b.WriteByte('*')
		}
		first = false
		writeRef(&b, a)
	}
	b.WriteString("->")
	writeRef(&b, p.Arrays[out])
	if len(p.Extents) > 0 {
		b.WriteString(" |")
		pos := p.indexOf()
		seen := make(map[string]bool, len(p.Indices))
		emit := func(a Array) {
			for _, name := range a.Indices {
				if !seen[name] {
					seen[name] = true
					fmt.Fprintf(&b, " %s=%d", name, p.Extents[pos[name]])
				}
			}
		}
		for j, a := range p.Arrays {
			if j != out {
				emit(a)
			}
		}
		emit(p.Arrays[out])
	}
	return b.String()
}

func writeRef(b *strings.Builder, a Array) {
	b.WriteString(a.Name)
	b.WriteByte('[')
	b.WriteString(strings.Join(a.Indices, ","))
	b.WriteByte(']')
}

// WithExtents returns a copy of the program with extents assigned from a
// name→extent map. Every program index must be present in the map; extra
// names are rejected.
func (p Program) WithExtents(extents map[string]int) (Program, error) {
	if len(extents) == 0 {
		return p, nil
	}
	known := make(map[string]bool, len(p.Indices))
	for _, name := range p.Indices {
		known[name] = true
	}
	names := make([]string, 0, len(extents))
	for name := range extents {
		names = append(names, name)
	}
	sort.Strings(names) // so an error names the same index every time
	for _, name := range names {
		if !known[name] {
			return Program{}, fmt.Errorf("hbl: extent for unknown index %q: %w", name, core.ErrBadProgram)
		}
	}
	if len(names) != len(p.Indices) {
		missing := make([]string, 0, len(p.Indices))
		for _, name := range p.Indices {
			if _, ok := extents[name]; !ok {
				missing = append(missing, name)
			}
		}
		return Program{}, fmt.Errorf("hbl: extents missing for %s: %w", strings.Join(missing, ", "), core.ErrBadProgram)
	}
	q := p
	q.Extents = make([]int, len(p.Indices))
	for i, name := range p.Indices {
		q.Extents[i] = extents[name]
	}
	return q, nil
}
