package topo

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Policy selects how machine ranks are laid out on a topology's endpoints.
type Policy int

const (
	// Contiguous places rank i on endpoint i: consecutive ranks — and thus
	// the innermost fibers of a p1×p2×p3 grid, whose i3 coordinate varies
	// fastest — share the topology's locality unit. The default.
	Contiguous Policy = iota
	// RoundRobin deals consecutive ranks across locality units like cards:
	// rank i lands on endpoint (i mod nb)·b + i/b·... (one rank per unit
	// before reusing any), scattering every grid fiber across the machine.
	// The adversarial placement for locality, useful to bound how much
	// placement alone costs.
	RoundRobin
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Contiguous:
		return "contiguous"
	case RoundRobin:
		return "roundrobin"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Policies lists the accepted placement names.
func Policies() []string { return []string{"contiguous", "roundrobin"} }

// ParsePolicy resolves a placement name (case-insensitive); the empty
// string selects Contiguous. Unknown names wrap core.ErrBadTopology.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "contiguous", "contig":
		return Contiguous, nil
	case "roundrobin", "rr":
		return RoundRobin, nil
	default:
		return 0, fmt.Errorf("topo: unknown placement %q (valid: %s): %w",
			s, strings.Join(Policies(), ", "), core.ErrBadTopology)
	}
}

// Placement is a bijection from machine ranks to topology endpoints.
type Placement struct {
	// Policy is the policy that produced the placement.
	Policy Policy
	// ToEndpoint maps rank → endpoint; it is always a permutation of
	// [0, P).
	ToEndpoint []int
}

// placeRanks lays t's P() ranks onto its endpoints under the policy; an
// unknown policy wraps core.ErrBadTopology. The simulator identifies ranks
// with network attachment points, so the rank count is the endpoint count.
func placeRanks(t Topology, policy Policy) (Placement, error) {
	p := t.P()
	pl := Placement{Policy: policy, ToEndpoint: make([]int, p)}
	switch policy {
	case Contiguous:
		for i := range pl.ToEndpoint {
			pl.ToEndpoint[i] = i
		}
	case RoundRobin:
		b := t.NodeSize()
		if b <= 1 || p%b != 0 {
			// No whole locality units to deal across; identity is the only
			// sensible bijection.
			for i := range pl.ToEndpoint {
				pl.ToEndpoint[i] = i
			}
			break
		}
		nb := p / b
		// Rank i goes to unit (i mod nb), slot (i / nb): consecutive ranks
		// land on distinct units until every unit holds one, then wrap.
		for i := range pl.ToEndpoint {
			pl.ToEndpoint[i] = (i%nb)*b + i/nb
		}
	default:
		return Placement{}, fmt.Errorf("topo: unknown placement policy %d: %w", int(policy), core.ErrBadTopology)
	}
	return pl, nil
}
