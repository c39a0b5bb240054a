package topo

import (
	"fmt"

	"repro/internal/core"
)

// FatTree is a radix-ary tree of switches over radix^levels leaf endpoints.
// The tree edge between a level-ℓ subtree (radix^ℓ leaves) and its parent
// consists of widths[ℓ] parallel cables; routes climb to the lowest common
// ancestor and descend, picking one cable per level deterministically from
// the (src, dst) pair so flows spread across the parallel cables. With
// widths radix^ℓ (a full-bisection fat-tree) no tree edge is
// oversubscribed; with widths all 1 (a "skinny" tree, spec "tree=RxL") the
// root edge carries every cross-half flow and congestion is maximal.
type FatTree struct {
	radix, levels int
	widths        []int
	link          Link
	p             int
	offsets       []int // link-id offset of each level's cable block
	numLinks      int
}

// NewFatTree builds a fat-tree: full bisection (widths[ℓ] = radix^ℓ, level
// 0 being the leaf edge), or with skinny a single cable at every level.
// Invalid shapes wrap core.ErrBadTopology.
func NewFatTree(radix, levels int, skinny bool, link Link) (*FatTree, error) {
	if radix < 2 || levels < 1 {
		return nil, fmt.Errorf("topo: fat-tree needs radix ≥ 2 and levels ≥ 1, got %dx%d: %w",
			radix, levels, core.ErrBadTopology)
	}
	p := 1
	for i := 0; i < levels; i++ {
		if p > 1<<22/radix {
			return nil, fmt.Errorf("topo: fat-tree %dx%d has too many leaves: %w", radix, levels, core.ErrBadTopology)
		}
		p *= radix
	}
	t := &FatTree{
		radix:   radix,
		levels:  levels,
		widths:  make([]int, levels),
		link:    link,
		p:       p,
		offsets: make([]int, levels),
	}
	id, nodes, w := 0, p, 1
	for l := 0; l < levels; l++ {
		t.widths[l] = w
		if skinny {
			t.widths[l] = 1
		}
		t.offsets[l] = id
		id += nodes * t.widths[l] * 2
		nodes /= radix
		w *= radix
	}
	t.numLinks = id
	return t, nil
}

// Name returns the spec string ("fattree=RxL", or "tree=RxL" when every
// level has a single cable).
func (t *FatTree) Name() string {
	kind := "tree"
	for _, w := range t.widths {
		if w != 1 {
			kind = "fattree"
			break
		}
	}
	return fmt.Sprintf("%s=%dx%d", kind, t.radix, t.levels)
}

// P returns the leaf count radix^levels.
func (t *FatTree) P() int { return t.p }

// NodeSize returns the radix: consecutive leaves share a first-level
// switch.
func (t *FatTree) NodeSize() int { return t.radix }

// NumLinks returns the total cable count (up and down, all levels).
func (t *FatTree) NumLinks() int { return t.numLinks }

// linkID identifies cable c (dir 0 = up, 1 = down) between level-l node
// `node` and its parent.
func (t *FatTree) linkID(l, node, cable, dir int) int {
	return t.offsets[l] + (node*t.widths[l]+cable)*2 + dir
}

// Route climbs from src to the lowest common ancestor and descends to dst,
// choosing cables deterministically from the endpoint pair.
func (t *FatTree) Route(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	// Find the LCA level: the smallest l with equal level-l ancestors.
	lca, s, d := 0, src, dst
	for s != d {
		s /= t.radix
		d /= t.radix
		lca++
	}
	for l, node := 0, src; l < lca; l++ {
		cable := (src*31 + dst) % t.widths[l]
		buf = append(buf, t.linkID(l, node, cable, 0))
		node /= t.radix
	}
	for l := lca - 1; l >= 0; l-- {
		node := dst
		for i := 0; i < l; i++ {
			node /= t.radix
		}
		cable := (src*31 + dst) % t.widths[l]
		buf = append(buf, t.linkID(l, node, cable, 1))
	}
	return buf
}

// Link returns the uniform per-cable link cost.
func (t *FatTree) Link() Link { return t.link }

// LinkFlows fills the all-to-all crossing count of every link (flows must
// be zeroed). The level-ℓ tree edge above a node with sub = radix^ℓ leaves
// carries the sub·(p−sub) pairs crossing it in each direction, split
// exactly evenly over the widths[ℓ] cables: both shapes NewFatTree builds
// have a cable count dividing the subtree leaf count, so for any fixed src
// the dst residues modulo the width are equidistributed over both a
// subtree and its complement (both have width-aligned sizes), and the
// cable choice (31·src + dst) mod widths[ℓ] spreads the flows uniformly.
func (t *FatTree) LinkFlows(flows []int) {
	sub := 1
	for l := 0; l < t.levels; l++ {
		w := t.widths[l]
		per := sub * (t.p - sub) / w
		nodes := t.p / sub
		for node := 0; node < nodes; node++ {
			for c := 0; c < w; c++ {
				flows[t.linkID(l, node, c, 0)] = per
				flows[t.linkID(l, node, c, 1)] = per
			}
		}
		sub *= t.radix
	}
}

// WalkCharge prices one message in Route's link order — climb to the LCA,
// then descend — without materializing the route or allocating.
func (t *FatTree) WalkCharge(effBeta []float64, src, dst int) (alpha, maxEff float64) {
	if src == dst {
		return 0, 0
	}
	lca, s, d := 0, src, dst
	for s != d {
		s /= t.radix
		d /= t.radix
		lca++
	}
	for l, node := 0, src; l < lca; l++ {
		cable := (src*31 + dst) % t.widths[l]
		alpha += t.link.Alpha
		if e := effBeta[t.linkID(l, node, cable, 0)]; e > maxEff {
			maxEff = e
		}
		node /= t.radix
	}
	for l := lca - 1; l >= 0; l-- {
		node := dst
		for i := 0; i < l; i++ {
			node /= t.radix
		}
		cable := (src*31 + dst) % t.widths[l]
		alpha += t.link.Alpha
		if e := effBeta[t.linkID(l, node, cable, 1)]; e > maxEff {
			maxEff = e
		}
	}
	return alpha, maxEff
}
