package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/algs"
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

// TestParseAlgs: names resolve case-insensitively through algs.Lookup, in
// the order given; "all" gives the registry; an unknown name fails listing
// the valid ones.
func TestParseAlgs(t *testing.T) {
	got, err := parseAlgs("cannon, ALG1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "Cannon" || got[1].Name != "Alg1" {
		t.Fatalf("parseAlgs = %+v", got)
	}
	if all, err := parseAlgs("All"); err != nil || len(all) != len(algs.Registry()) {
		t.Fatalf("parseAlgs(All) = %d entries, %v", len(all), err)
	}
	_, err = parseAlgs("Alg1,Strassen9000")
	if err == nil || !strings.Contains(err.Error(), "TwoPointFiveD") {
		t.Fatalf("unknown name = %v, want the valid names listed", err)
	}
}
