package main

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestParseDimsValidates: parseDims refuses the shapes core.Dims.Validate
// refuses with core.ErrBadDims, among them one whose n1·n2 overflows the
// exact float64 range (matrix.New would panic allocating it), and accepts
// a list of valid shapes in order.
func TestParseDimsValidates(t *testing.T) {
	for _, s := range []string{"3037000500x3037000500x1", "64x0x64", "64x64x64,-1x2x3"} {
		if _, err := parseDims(s); !errors.Is(err, core.ErrBadDims) {
			t.Errorf("parseDims(%q) = %v, want core.ErrBadDims", s, err)
		}
	}
	got, err := parseDims("64x64x64, 768x192x48")
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.Dims{core.Square(64), core.NewDims(768, 192, 48)}; !slices.Equal(got, want) {
		t.Fatalf("parseDims = %v, want %v", got, want)
	}
}
