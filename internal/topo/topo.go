// Package topo models interconnect topologies for the simulated machine.
//
// The paper's α-β-γ model (§3.1) assumes a fully connected network: every
// processor pair owns a dedicated bidirectional link, so a message costs
// α + β·w regardless of who else is communicating. Real machines are
// hierarchical — ranks share NICs, switches, and torus or fat-tree fabrics —
// and the question the topology subsystem answers is *when the paper's
// tight constants survive contention and locality*.
//
// A Topology describes the fabric as a set of directed links, all with one
// per-message latency α and one per-word cost β, plus a deterministic
// routing function mapping every ordered endpoint pair to the sequence of
// links its messages traverse. On top of it:
//
//   - Network (network.go) embeds the machine's ranks — in particular the
//     §5.2 optimal p1×p2×p3 grid — onto the topology's endpoints under a
//     placement policy (place.go), either contiguously (consecutive ranks
//     share a locality unit) or round-robin (consecutive ranks scattered
//     across locality units), and prices every message under the
//     max-congested-link model: latency is the route's total α, bandwidth
//     is the words times the largest β·χ over the route's links, where χ
//     is the link's concurrent-use factor (its all-to-all flow count
//     normalized so a dedicated per-pair link has χ = 1). The machine
//     simulator charges sends through this oracle.
//   - Congestion reports (congestion.go) analyze Algorithm 1's three
//     collective phases pattern-exactly: for the flows of each phase, the
//     busiest link's concurrent-use count and the route-length statistics.
//
// The Flat topology reproduces the paper's model bit-for-bit: one dedicated
// link per ordered pair, χ ≡ 1, so every charge is exactly (α, β).
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Link is the cost of one directed communication channel of a topology;
// every link of a fabric costs the same.
type Link struct {
	// Alpha is the per-message latency of traversing the link.
	Alpha float64
	// Beta is the per-word cost of the link at full, uncontended capacity.
	Beta float64
}

// Topology is an interconnect fabric: endpoints (one per machine rank),
// directed links of one cost, a deterministic routing function, and the
// closed forms that price routes without enumerating them.
// Implementations must be immutable after construction and safe for
// concurrent use; Route must not allocate beyond growing buf.
//
// LinkFlows and WalkCharge are what let Network work at any P:
// LinkFlows replaces an all-pairs route enumeration with O(links)
// arithmetic, and WalkCharge prices one message in O(hops) with no
// allocation. WalkCharge must price exactly the links Route would emit, in
// the same order, summing per-link α and maximizing effBeta, so that its
// charges are bit-identical to pricing the enumerated route.
type Topology interface {
	// Name returns the topology's spec string (e.g. "torus=4x4x4").
	Name() string
	// P returns the number of endpoints.
	P() int
	// NodeSize returns the topology's locality unit — the number of
	// consecutive endpoints that share the cheapest level of the hierarchy
	// (ranks per node, innermost torus extent, fat-tree radix). Placement
	// policies use it as the round-robin block size; it is 1 when the
	// topology has no locality to exploit.
	NodeSize() int
	// NumLinks returns the size of the link id space; Route only yields
	// ids in [0, NumLinks).
	NumLinks() int
	// Route appends the link ids of the path from endpoint src to endpoint
	// dst to buf and returns it. src == dst yields no links. Routing is
	// deterministic and minimal for every implementation in this package.
	Route(buf []int, src, dst int) []int
	// Link returns the cost parameters every link shares.
	Link() Link
	// LinkFlows fills flows[l] with the number of ordered endpoint pairs
	// whose route crosses link l — the same counts enumerating Route over
	// all P(P−1) pairs would produce. flows has NumLinks entries and must
	// be zeroed by the caller.
	LinkFlows(flows []int)
	// WalkCharge prices one message from endpoint src to endpoint dst:
	// alpha is α summed over the route's links, maxEff the largest
	// effBeta[l] over the route's links (effBeta holds β·χ_l, indexed by
	// link id). It must not allocate.
	WalkCharge(effBeta []float64, src, dst int) (alpha, maxEff float64)
}

// maxLinks bounds the link id space of the non-flat fabrics Parse builds.
// NewNetwork allocates two NumLinks-entry slices, so the bound keeps one
// charge oracle under 2 GiB. Flat is exempt: Network prices it with a
// constant and never materializes its p² ids.
const maxLinks = 1 << 27

// tooManyLinks is Parse's rejection of a fabric past maxLinks.
func tooManyLinks(spec string, p int) error {
	return fmt.Errorf("topo: %s at %d ranks has more link ids than the limit %d: %w",
		spec, p, maxLinks, core.ErrBadTopology)
}

// Kinds lists the accepted Parse spec shapes, for error messages and CLI
// usage strings.
func Kinds() []string {
	return []string{
		"flat",
		"twolevel=<ranks-per-node>",
		"torus=<d1>x<d2>[x<d3>...]",
		"fattree=<radix>x<levels>",
		"tree=<radix>x<levels>",
	}
}

// Parse builds the topology named by spec for a machine of p ranks, with
// every link costing base. Specs:
//
//	flat                     dedicated link per pair (the paper's model)
//	twolevel=<g>             nodes of g ranks around a central switch
//	torus=<d1>x<d2>[x...]    k-ary torus with dimension-ordered routing
//	fattree=<radix>x<levels> full-bisection fat-tree (widths radix^level)
//	tree=<radix>x<levels>    skinny tree (every level width 1)
//
// A malformed spec, a shape that does not multiply out to p, a non-flat
// fabric with more than maxLinks link ids, or an unknown kind wraps
// core.ErrBadTopology.
func Parse(spec string, p int, base Link) (Topology, error) {
	if p <= 0 {
		return nil, fmt.Errorf("topo: need a positive rank count, got %d: %w", p, core.ErrBadTopology)
	}
	kind, arg, hasArg := strings.Cut(strings.TrimSpace(strings.ToLower(spec)), "=")
	switch kind {
	case "flat":
		if hasArg {
			return nil, fmt.Errorf("topo: flat takes no parameter, got %q: %w", spec, core.ErrBadTopology)
		}
		return NewFlat(p, base), nil
	case "twolevel":
		g, err := strconv.Atoi(arg)
		if err != nil || g <= 0 {
			return nil, fmt.Errorf("topo: twolevel wants a positive ranks-per-node count, got %q (valid: %s): %w",
				spec, strings.Join(Kinds(), ", "), core.ErrBadTopology)
		}
		if p%g != 0 {
			return nil, fmt.Errorf("topo: twolevel=%d does not divide %d ranks into whole nodes: %w", g, p, core.ErrBadTopology)
		}
		// Each node owns g² + 2 link ids; dividing first cannot overflow.
		if g > maxLinks/g || p/g > maxLinks/(g*g+2) {
			return nil, tooManyLinks(spec, p)
		}
		return NewTwoLevel(p/g, g, base), nil
	case "torus":
		dims, err := parseExtents(arg)
		if err != nil {
			return nil, fmt.Errorf("topo: torus wants extents like 4x4x4, got %q: %w", spec, core.ErrBadTopology)
		}
		t, err := NewTorus(dims, base)
		if err != nil {
			return nil, err
		}
		if t.P() != p {
			return nil, fmt.Errorf("topo: torus %s has %d endpoints, machine has %d ranks: %w", arg, t.P(), p, core.ErrBadTopology)
		}
		if p > maxLinks/(2*len(dims)) {
			return nil, tooManyLinks(spec, p)
		}
		return t, nil
	case "fattree", "tree":
		dims, err := parseExtents(arg)
		if err != nil || len(dims) != 2 {
			return nil, fmt.Errorf("topo: %s wants <radix>x<levels>, got %q: %w", kind, spec, core.ErrBadTopology)
		}
		t, err := NewFatTree(dims[0], dims[1], kind == "tree", base)
		if err != nil {
			return nil, err
		}
		if t.P() != p {
			return nil, fmt.Errorf("topo: %s=%s has %d leaves, machine has %d ranks: %w", kind, arg, t.P(), p, core.ErrBadTopology)
		}
		if t.NumLinks() > maxLinks {
			return nil, tooManyLinks(spec, p)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("topo: unknown topology %q (valid: %s): %w",
			spec, strings.Join(Kinds(), ", "), core.ErrBadTopology)
	}
}

// parseExtents parses "4x4x4" into positive ints.
func parseExtents(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad extent %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty extents")
	}
	return out, nil
}
