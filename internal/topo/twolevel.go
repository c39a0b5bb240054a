package topo

import "fmt"

// TwoLevel is the node/NIC hierarchy of a commodity cluster: endpoints are
// grouped into nodes of perNode ranks; ranks on the same node exchange over
// dedicated intra-node links (one per ordered pair), while every
// inter-node message traverses exactly two shared links — the source
// node's NIC uplink and the destination node's NIC downlink. Every link
// costs link. The uplink of a node is shared by all of its ranks' outbound
// traffic, which is where NIC oversubscription (χ ≈ ranks-per-node under
// uniform traffic) comes from.
type TwoLevel struct {
	nodes, perNode int
	link           Link
}

// NewTwoLevel builds a cluster of nodes × perNode endpoints.
func NewTwoLevel(nodes, perNode int, link Link) *TwoLevel {
	if nodes <= 0 || perNode <= 0 {
		panic(fmt.Sprintf("topo: twolevel %d nodes x %d ranks", nodes, perNode))
	}
	return &TwoLevel{nodes: nodes, perNode: perNode, link: link}
}

// Name returns the spec string.
func (t *TwoLevel) Name() string { return fmt.Sprintf("twolevel=%d", t.perNode) }

// P returns nodes · perNode.
func (t *TwoLevel) P() int { return t.nodes * t.perNode }

// NodeSize returns the ranks-per-node count.
func (t *TwoLevel) NodeSize() int { return t.perNode }

// NumLinks returns the id-space size: 2 NIC links per node followed by the
// dedicated intra-node pair links.
func (t *TwoLevel) NumLinks() int {
	return 2*t.nodes + t.nodes*t.perNode*t.perNode
}

// up and down are the NIC link ids of a node.
func (t *TwoLevel) up(node int) int   { return 2 * node }
func (t *TwoLevel) down(node int) int { return 2*node + 1 }

// Route is one intra-node hop within a node, or up-then-down across nodes.
func (t *TwoLevel) Route(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	sn, dn := src/t.perNode, dst/t.perNode
	if sn == dn {
		sl, dl := src%t.perNode, dst%t.perNode
		id := 2*t.nodes + (sn*t.perNode+sl)*t.perNode + dl
		return append(buf, id)
	}
	return append(buf, t.up(sn), t.down(dn))
}

// Link returns the uniform link cost.
func (t *TwoLevel) Link() Link { return t.link }

// LinkFlows fills the all-to-all crossing count of every link (flows must
// be zeroed): each NIC uplink and downlink carries its node's
// perNode·(P−perNode) cross-node pairs, and each dedicated intra-node pair
// link carries exactly its one pair (diagonal ids stay unused).
func (t *TwoLevel) LinkFlows(flows []int) {
	cross := t.perNode * (t.P() - t.perNode)
	for n := 0; n < t.nodes; n++ {
		flows[t.up(n)] = cross
		flows[t.down(n)] = cross
	}
	for n := 0; n < t.nodes; n++ {
		base := 2*t.nodes + n*t.perNode*t.perNode
		for sl := 0; sl < t.perNode; sl++ {
			for dl := 0; dl < t.perNode; dl++ {
				if sl != dl {
					flows[base+sl*t.perNode+dl] = 1
				}
			}
		}
	}
}

// WalkCharge prices one message in Route's link order — intra link, or
// uplink then downlink — without materializing the route or allocating.
func (t *TwoLevel) WalkCharge(effBeta []float64, src, dst int) (alpha, maxEff float64) {
	if src == dst {
		return 0, 0
	}
	sn, dn := src/t.perNode, dst/t.perNode
	if sn == dn {
		id := 2*t.nodes + (sn*t.perNode+src%t.perNode)*t.perNode + dst%t.perNode
		return t.link.Alpha, effBeta[id]
	}
	alpha = t.link.Alpha + t.link.Alpha
	maxEff = effBeta[t.up(sn)]
	if e := effBeta[t.down(dn)]; e > maxEff {
		maxEff = e
	}
	return alpha, maxEff
}

// Translation returns the whole-node shift carrying from onto to; it
// exists only when both endpoints occupy the same intra-node slot, since
// routing distinguishes slots through the dedicated intra links.
func (t *TwoLevel) Translation(from, to int) (int, bool) {
	if from%t.perNode != to%t.perNode {
		return 0, false
	}
	return (to/t.perNode - from/t.perNode + t.nodes) % t.nodes, true
}

// Invert returns the opposite node shift.
func (t *TwoLevel) Invert(tok int) int { return (t.nodes - tok) % t.nodes }

// TranslateEndpoint shifts the endpoint's node, keeping its slot.
func (t *TwoLevel) TranslateEndpoint(e, tok int) int {
	return ((e/t.perNode+tok)%t.nodes)*t.perNode + e%t.perNode
}

// TranslateLink shifts the link's owning node, keeping NIC direction or
// intra-node slot pair.
func (t *TwoLevel) TranslateLink(l, tok int) int {
	if l < 2*t.nodes {
		node, dir := l/2, l%2
		return 2*((node+tok)%t.nodes) + dir
	}
	rel := l - 2*t.nodes
	per := t.perNode * t.perNode
	node, off := rel/per, rel%per
	return 2*t.nodes + ((node+tok)%t.nodes)*per + off
}

// Anchor keeps the endpoint's slot on node 0.
func (t *TwoLevel) Anchor(e int) int { return e % t.perNode }
