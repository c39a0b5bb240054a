package hbl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestValidateRejects(t *testing.T) {
	ref := func(name string, idx ...string) Array { return Array{Name: name, Indices: idx} }
	cases := []struct {
		name string
		p    Program
	}{
		{"no indices", Program{Arrays: []Array{ref("A", "i")}}},
		{"no arrays", Program{Indices: []string{"i"}}},
		{"duplicate index", Program{Indices: []string{"i", "i"}, Arrays: []Array{ref("A", "i")}}},
		{"duplicate array", Program{Indices: []string{"i"}, Arrays: []Array{ref("A", "i"), ref("A", "i")}}},
		{"unknown index", Program{Indices: []string{"i"}, Arrays: []Array{ref("A", "j")}}},
		{"repeated subscript", Program{Indices: []string{"i"}, Arrays: []Array{ref("A", "i", "i")}}},
		{"scalar array", Program{Indices: []string{"i"}, Arrays: []Array{{Name: "A"}, ref("B", "i")}}},
		{"uncovered index", Program{Indices: []string{"i", "j"}, Arrays: []Array{ref("A", "i")}}},
		{"bad output", Program{Indices: []string{"i"}, Arrays: []Array{ref("A", "i")}, Output: "Z"}},
		{"extent count", Program{Indices: []string{"i"}, Extents: []int{2, 3}, Arrays: []Array{ref("A", "i")}}},
		{"non-positive extent", Program{Indices: []string{"i"}, Extents: []int{0}, Arrays: []Array{ref("A", "i")}}},
		{"volume overflow", Program{
			Indices: []string{"i", "j"},
			Extents: []int{1 << 30, 1 << 30},
			Arrays:  []Array{ref("A", "i"), ref("B", "j")},
		}},
		{"reserved characters", Program{Indices: []string{"i,j"}, Arrays: []Array{ref("A", "i,j")}}},
		{"empty name", Program{Indices: []string{""}, Arrays: []Array{ref("A", "")}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); !errors.Is(err, core.ErrBadProgram) {
			t.Errorf("%s: Validate = %v, want ErrBadProgram", tc.name, err)
		}
	}
	if err := MatMul(4, 5, 6).Validate(); err != nil {
		t.Fatalf("MatMul(4,5,6).Validate = %v", err)
	}
}

func TestParseProgram(t *testing.T) {
	for _, src := range []string{
		"A[i,k]*B[k,j] -> C[i,j]",
		"A[i,k]*B[k,j]->C[i,j] | i=9600 k=600 j=2400",
		"C[i,j] += A[i,k] * B[k,j]",
		"F[i] += X[i] * Y[j] | i=1000 j=1000",
	} {
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("ParseProgram(%q) = %v", src, err)
		}
		if p.Output == "" || len(p.Arrays) < 2 {
			t.Fatalf("ParseProgram(%q) = %+v, missing output or arrays", src, p)
		}
	}

	p, err := ParseProgram("A[i,k]*B[k,j]->C[i,j] | i=7 k=5 j=3")
	if err != nil {
		t.Fatal(err)
	}
	want := MatMul(7, 3, 5)
	if p.String() != want.String() {
		t.Fatalf("parsed %q, MatMul gives %q", p.String(), want.String())
	}

	for _, src := range []string{
		"",
		"A[i,k]*B[k,j]",                     // no output
		"A[i]->B[i]->C[i]",                  // two arrows
		"C[i] += A[i] += B[i]",              // two +=
		"C[i,j] += A[i,k] -> B[k,j]",        // mixed forms
		"A[i]*B -> C[i]",                    // missing subscripts
		"A[i] -> C[i] | i=",                 // bad extent value
		"A[i] -> C[i] | i=3 i=4",            // duplicate extent
		"A[i] -> C[i] | j=3",                // extent for unknown index
		"A[i] -> C[i] | i=2 | i=3",          // two extents clauses
		"A[i,k]*B[k,j] -> C[i,j] | i=1 k=2", // missing extent for j
	} {
		if _, err := ParseProgram(src); !errors.Is(err, core.ErrBadProgram) {
			t.Errorf("ParseProgram(%q) = %v, want ErrBadProgram", src, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, p := range []Program{
		MatMul(9600, 2400, 600),
		Cuboid(32, 16, 16, 8),
		TensorContraction([]int{4, 5}, []int{6}, []int{7, 8}),
		NBody(1000),
		Conv2D(128, 128, 3, 3),
	} {
		q, err := ParseProgram(p.String())
		if err != nil {
			t.Fatalf("ParseProgram(%q) = %v", p.String(), err)
		}
		if q.String() != p.String() {
			t.Errorf("round trip %q -> %q", p.String(), q.String())
		}
		if q.Volume() != p.Volume() || q.TotalWords() != p.TotalWords() {
			t.Errorf("%q: round trip changed volume or words", p.String())
		}
	}
}

func TestWithExtents(t *testing.T) {
	p := Program{
		Indices: []string{"i", "j"},
		Arrays:  []Array{{Name: "A", Indices: []string{"i"}}, {Name: "B", Indices: []string{"j"}}},
	}
	q, err := p.WithExtents(map[string]int{"i": 3, "j": 4})
	if err != nil {
		t.Fatal(err)
	}
	if q.Extents[0] != 3 || q.Extents[1] != 4 {
		t.Fatalf("Extents = %v", q.Extents)
	}
	if _, err := p.WithExtents(map[string]int{"i": 3}); !errors.Is(err, core.ErrBadProgram) {
		t.Fatalf("missing extent: %v", err)
	}
	if _, err := p.WithExtents(map[string]int{"i": 3, "j": 4, "z": 5}); !errors.Is(err, core.ErrBadProgram) {
		t.Fatalf("unknown extent: %v", err)
	}
	// With several unknown names the error names the first in sorted
	// order, whatever order the map iterates in.
	for range 20 {
		_, err := p.WithExtents(map[string]int{"z": 1, "y": 2, "x": 3, "w": 4, "i": 3, "j": 4})
		if err == nil || !strings.Contains(err.Error(), `unknown index "w"`) {
			t.Fatalf("several unknown extents: %v, want the error to name \"w\"", err)
		}
	}
}

func TestOutputIndex(t *testing.T) {
	p := MatMul(2, 3, 4)
	if got := p.OutputIndex(); got != 2 {
		t.Fatalf("OutputIndex = %d, want 2", got)
	}
	p.Output = "A"
	if got := p.OutputIndex(); got != 0 {
		t.Fatalf("OutputIndex = %d, want 0", got)
	}
}
