package topo

// Network is the cost oracle the machine simulator charges sends through:
// for every ordered rank pair it answers the effective (α, β) of one
// message, under the max-congested-link model.
//
// Every link of the fabric costs Link()'s (α, β). Latency is additive over
// the route: α(s, d) adds α once per hop. Bandwidth is throttled by the
// route's most contended link: β(s, d) = max_{l ∈ route} β · χ_l, where
// the concurrent-use factor χ_l = max(1, flows_l / (p−1)) counts the
// ordered endpoint pairs whose route crosses l, normalized so that a
// dedicated per-pair link — each endpoint talking to its p−1 peers over p−1
// private links — has χ = 1. The factors are static, keeping the
// simulator deterministic: charges never depend on goroutine timing.
//
// Construction is O(links): the fabric supplies its all-to-all flow
// counts in closed form (Topology.LinkFlows), and the only per-link state
// kept is the effective-β table effBeta[l] = β·χ_l. Charge walks the
// route arithmetically via Topology.WalkCharge — O(hops) and
// allocation-free. A Flat topology is special-cased to a uniform charge
// with no per-link state at all, so the paper's model runs unchanged at
// any p.
type Network struct {
	p    int
	topo Topology
	pl   Placement

	// uniform covers Flat: every pair charges exactly (alpha, beta).
	uniform     bool
	alpha, beta float64

	// effBeta[l] = β · χ_l, the only O(links) state the charge model
	// needs.
	effBeta []float64
}

// NewNetwork builds the charge oracle for topology t, laying its t.P()
// ranks onto the endpoints under policy (see Policy). An unknown policy
// wraps core.ErrBadTopology.
func NewNetwork(t Topology, policy Policy) (*Network, error) {
	pl, err := placeRanks(t, policy)
	if err != nil {
		return nil, err
	}
	p := t.P()
	n := &Network{p: p, topo: t, pl: pl}
	link := t.Link()
	if _, ok := t.(*Flat); ok {
		n.uniform = true
		n.alpha, n.beta = link.Alpha, link.Beta
		return n, nil
	}

	flows := make([]int, t.NumLinks())
	t.LinkFlows(flows)

	// χ_l = max(1, flows_l/(p−1)) folded into the per-link effective β.
	norm := float64(p - 1)
	if norm < 1 {
		norm = 1
	}
	n.effBeta = make([]float64, len(flows))
	for l, f := range flows {
		c := float64(f) / norm
		if c < 1 {
			c = 1
		}
		n.effBeta[l] = link.Beta * c
	}
	return n, nil
}

// Charge returns the effective per-message latency α and per-word cost β
// for one message from rank src to rank dst. It never allocates at any
// scale: a uniform constant, or an arithmetic route walk.
func (n *Network) Charge(src, dst int) (alpha, beta float64) {
	if n.uniform {
		return n.alpha, n.beta
	}
	return n.topo.WalkCharge(n.effBeta, n.pl.ToEndpoint[src], n.pl.ToEndpoint[dst])
}

// P returns the rank count.
func (n *Network) P() int { return n.p }

// Topology returns the underlying fabric.
func (n *Network) Topology() Topology { return n.topo }

// Placement returns the rank→endpoint embedding the charges were computed
// under.
func (n *Network) Placement() Placement { return n.pl }

// Uniform reports whether every ordered pair charges the same (α, β) —
// true exactly for Flat. Fiber sweeps use it to price one pair instead of
// all of them.
func (n *Network) Uniform() bool { return n.uniform }
