package topo

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

var testLink = Link{Alpha: 2, Beta: 0.5}

// TestParseValid checks every spec kind parses to the right shape.
func TestParseValid(t *testing.T) {
	cases := []struct {
		spec     string
		p        int
		name     string
		nodeSize int
	}{
		{"flat", 7, "flat", 1},
		{"  Flat ", 64, "flat", 1},
		{"twolevel=8", 64, "twolevel=8", 8},
		{"twolevel=1", 5, "twolevel=1", 1},
		{"torus=4x4x4", 64, "torus=4x4x4", 4},
		{"torus=8", 8, "torus=8", 8},
		{"torus=2x3", 6, "torus=2x3", 3},
		{"fattree=4x3", 64, "fattree=4x3", 4},
		{"tree=4x3", 64, "tree=4x3", 4},
		{"tree=2x1", 2, "tree=2x1", 2},
	}
	for _, tc := range cases {
		topo, err := Parse(tc.spec, tc.p, testLink)
		if err != nil {
			t.Errorf("Parse(%q, %d): %v", tc.spec, tc.p, err)
			continue
		}
		if topo.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, topo.Name(), tc.name)
		}
		if topo.P() != tc.p {
			t.Errorf("Parse(%q).P() = %d, want %d", tc.spec, topo.P(), tc.p)
		}
		if topo.NodeSize() != tc.nodeSize {
			t.Errorf("Parse(%q).NodeSize() = %d, want %d", tc.spec, topo.NodeSize(), tc.nodeSize)
		}
	}
}

// TestParseInvalid checks malformed and mismatched specs wrap
// core.ErrBadTopology and name the valid kinds where the kind is unknown.
func TestParseInvalid(t *testing.T) {
	cases := []struct {
		spec string
		p    int
	}{
		{"mesh", 16},              // unknown kind
		{"", 16},                  // empty
		{"flat=3", 16},            // flat takes no parameter
		{"twolevel=0", 16},        // non-positive group
		{"twolevel=x", 16},        // non-numeric
		{"twolevel=5", 16},        // does not divide
		{"torus=", 16},            // empty extents
		{"torus=4x0", 16},         // non-positive extent
		{"torus=4x4", 64},         // wrong product
		{"fattree=4", 64},         // missing levels
		{"fattree=1x3", 1},        // radix < 2
		{"fattree=4x0", 1},        // levels < 1
		{"fattree=4x2", 64},       // wrong leaf count
		{"tree=4x4x4", 64},        // too many extents
		{"flat", 0},               // non-positive p
		{"fattree=2x40", 1 << 30}, // overflow guard
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec, tc.p, testLink)
		if !errors.Is(err, core.ErrBadTopology) {
			t.Errorf("Parse(%q, %d) = %v, want ErrBadTopology", tc.spec, tc.p, err)
		}
	}
	_, err := Parse("mesh", 16, testLink)
	for _, kind := range Kinds() {
		if !strings.Contains(err.Error(), strings.SplitN(kind, "=", 2)[0]) {
			t.Errorf("unknown-kind error %q does not mention %q", err, kind)
		}
	}
}

// TestRouteLinkIDsInRange checks every route of every topology yields ids
// within [0, NumLinks) and that src == dst routes are empty.
func TestRouteLinkIDsInRange(t *testing.T) {
	for _, spec := range []string{"flat", "twolevel=8", "torus=4x4x4", "fattree=4x3", "tree=4x3", "torus=2x32"} {
		topo, err := Parse(spec, 64, testLink)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		var buf []int
		for s := 0; s < topo.P(); s++ {
			for d := 0; d < topo.P(); d++ {
				buf = topo.Route(buf[:0], s, d)
				if s == d && len(buf) != 0 {
					t.Fatalf("%s: Route(%d, %d) = %v, want empty", spec, s, d, buf)
				}
				if s != d && len(buf) == 0 {
					t.Fatalf("%s: Route(%d, %d) is empty", spec, s, d)
				}
				for _, id := range buf {
					if id < 0 || id >= topo.NumLinks() {
						t.Fatalf("%s: Route(%d, %d) uses link %d outside [0, %d)", spec, s, d, id, topo.NumLinks())
					}
				}
			}
		}
	}
}

// TestTwoLevelRoutes checks the node/NIC route shapes: one dedicated link
// within a node, exactly up-then-down across nodes.
func TestTwoLevelRoutes(t *testing.T) {
	tl := NewTwoLevel(4, 4, testLink, testLink)
	if got := tl.Route(nil, 1, 3); len(got) != 1 {
		t.Errorf("intra-node route = %v, want one link", got)
	}
	got := tl.Route(nil, 1, 14)
	if len(got) != 2 {
		t.Fatalf("inter-node route = %v, want two links", got)
	}
	if got[0] != tl.up(0) || got[1] != tl.down(3) {
		t.Errorf("inter-node route = %v, want [up(0)=%d down(3)=%d]", got, tl.up(0), tl.down(3))
	}
	// Distinct intra-node pairs must use distinct links (dedicated pair links).
	a := tl.Route(nil, 1, 2)
	b := tl.Route(nil, 1, 3)
	if a[0] == b[0] {
		t.Errorf("intra-node pairs (1,2) and (1,3) share link %d", a[0])
	}
}

// TestTorusRouteLength checks dimension-ordered routing takes the minimal
// ring distance in every dimension.
func TestTorusRouteLength(t *testing.T) {
	torus, err := NewTorus([]int{4, 4, 4}, testLink)
	if err != nil {
		t.Fatal(err)
	}
	ringDist := func(a, b, k int) int {
		f := (b - a + k) % k
		if k-f < f {
			return k - f
		}
		return f
	}
	for s := 0; s < torus.P(); s++ {
		for d := 0; d < torus.P(); d++ {
			want := 0
			for dim := 0; dim < 3; dim++ {
				want += ringDist(torus.coord(s, dim), torus.coord(d, dim), 4)
			}
			if got := len(torus.Route(nil, s, d)); got != want {
				t.Fatalf("torus route %d→%d has %d hops, want %d", s, d, got, want)
			}
		}
	}
}

// TestFatTreeRouteLength checks routes climb to the LCA and back: 2·lca
// links, and siblings under one leaf switch use exactly 2.
func TestFatTreeRouteLength(t *testing.T) {
	ft, err := NewFatTree(4, 3, nil, testLink)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ft.P(); s++ {
		for d := 0; d < ft.P(); d++ {
			if s == d {
				continue
			}
			lca, a, b := 0, s, d
			for a != b {
				a /= 4
				b /= 4
				lca++
			}
			if got := len(ft.Route(nil, s, d)); got != 2*lca {
				t.Fatalf("fattree route %d→%d has %d hops, want %d", s, d, got, 2*lca)
			}
		}
	}
	if got := len(ft.Route(nil, 0, 3)); got != 2 {
		t.Errorf("sibling route has %d hops, want 2", got)
	}
}

// TestRouteDeterminism checks routing twice gives identical link sequences.
func TestRouteDeterminism(t *testing.T) {
	for _, spec := range []string{"torus=4x4x4", "fattree=4x3"} {
		topo, err := Parse(spec, 64, testLink)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < topo.P(); s += 7 {
			for d := 0; d < topo.P(); d += 5 {
				a := topo.Route(nil, s, d)
				b := topo.Route(nil, s, d)
				if len(a) != len(b) {
					t.Fatalf("%s: route %d→%d changed length", spec, s, d)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: route %d→%d changed: %v vs %v", spec, s, d, a, b)
					}
				}
			}
		}
	}
}
