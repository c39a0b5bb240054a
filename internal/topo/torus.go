package topo

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Torus is a k-ary d-dimensional torus: endpoints are lattice points of
// dims (last coordinate varying fastest, matching grid.Grid's rank order),
// each connected to its two neighbors per dimension by directed links.
// Routing is dimension-ordered and minimal, taking the shorter way around
// each ring (ties break toward increasing coordinates), so a message
// traverses Σ_d ringdist(src_d, dst_d) links and congestion concentrates on
// the ring links exactly as in a physical torus fabric.
type Torus struct {
	dims []int
	link Link
	p    int
}

// NewTorus builds a torus with the given extents (at least one, all
// positive, with a product that fits an int). Shapes wrap
// core.ErrBadTopology on failure.
func NewTorus(dims []int, link Link) (*Torus, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topo: torus needs at least one extent: %w", core.ErrBadTopology)
	}
	p := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("topo: torus extent %d must be positive: %w", d, core.ErrBadTopology)
		}
		if p > math.MaxInt/d {
			return nil, fmt.Errorf("topo: torus extents %v have more than %d endpoints: %w", dims, math.MaxInt, core.ErrBadTopology)
		}
		p *= d
	}
	return &Torus{dims: append([]int(nil), dims...), link: link, p: p}, nil
}

// Name returns the spec string.
func (t *Torus) Name() string {
	s := "torus="
	for i, d := range t.dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprintf("%d", d)
	}
	return s
}

// P returns the product of the extents.
func (t *Torus) P() int { return t.p }

// NodeSize returns the innermost (fastest-varying) extent: consecutive
// endpoints lie along that ring.
func (t *Torus) NodeSize() int { return t.dims[len(t.dims)-1] }

// NumLinks returns 2 directed links per endpoint per dimension.
func (t *Torus) NumLinks() int { return t.p * len(t.dims) * 2 }

// linkID identifies the directed link leaving endpoint e along dim in
// direction dir (0 = +1, 1 = −1).
func (t *Torus) linkID(e, dim, dir int) int {
	return (e*len(t.dims)+dim)*2 + dir
}

// coord returns endpoint e's coordinate along dim.
func (t *Torus) coord(e, dim int) int {
	for d := len(t.dims) - 1; d > dim; d-- {
		e /= t.dims[d]
	}
	return e % t.dims[dim]
}

// step returns the endpoint one hop from e along dim in direction dir.
func (t *Torus) step(e, dim, dir int) int {
	stride := 1
	for d := len(t.dims) - 1; d > dim; d-- {
		stride *= t.dims[d]
	}
	k := t.dims[dim]
	c := t.coord(e, dim)
	nc := c + 1
	if dir == 1 {
		nc = c - 1 + k
	}
	return e + (nc%k-c)*stride
}

// Route walks dimension by dimension, taking the shorter ring direction.
func (t *Torus) Route(buf []int, src, dst int) []int {
	cur := src
	for dim := range t.dims {
		k := t.dims[dim]
		fwd := (t.coord(dst, dim) - t.coord(cur, dim) + k) % k
		if fwd == 0 {
			continue
		}
		dir, steps := 0, fwd
		if k-fwd < fwd {
			dir, steps = 1, k-fwd
		}
		for s := 0; s < steps; s++ {
			buf = append(buf, t.linkID(cur, dim, dir))
			cur = t.step(cur, dim, dir)
		}
	}
	return buf
}

// Link returns the uniform per-hop link cost.
func (t *Torus) Link() Link { return t.link }

// LinkFlows fills the all-to-all crossing count of every link (flows must
// be zeroed). On a ring of extent k, minimal routing with ties breaking
// forward sends ordered pairs at ring distance s ≤ ⌊k/2⌋ forward and
// s ≤ ⌊(k−1)/2⌋ backward; a fixed forward link is crossed by exactly s
// pairs of each forward distance s, so it carries W⁺ = Σ_{s=1}^{⌊k/2⌋} s
// crossings (and a backward link W⁻ = Σ_{s=1}^{⌊(k−1)/2⌋} s), the same for
// every link of the ring by rotational symmetry. Dimension-ordered routing
// makes a dim-t ring see one all-to-all per combination of the other
// coordinates, so every dim-t link carries (p/k_t)·W^± flows.
func (t *Torus) LinkFlows(flows []int) {
	for dim, k := range t.dims {
		rest := t.p / k
		fb, bb := k/2, (k-1)/2
		wplus := rest * fb * (fb + 1) / 2
		wminus := rest * bb * (bb + 1) / 2
		for e := 0; e < t.p; e++ {
			flows[t.linkID(e, dim, 0)] = wplus
			flows[t.linkID(e, dim, 1)] = wminus
		}
	}
}

// WalkCharge prices one message without materializing its route: it
// mirrors Route's dimension-ordered walk in the same link order, summing
// per-hop α and maximizing the per-link effective β, so the result is
// bit-identical to pricing the enumerated route. Coordinates are tracked
// incrementally (no per-hop division), and it does not allocate.
func (t *Torus) WalkCharge(effBeta []float64, src, dst int) (alpha, maxEff float64) {
	nd := len(t.dims)
	cur, stride := src, t.p
	for dim, k := range t.dims {
		stride /= k
		c := (cur / stride) % k
		fwd := ((dst/stride)%k - c + k) % k
		if fwd == 0 {
			continue
		}
		dir, steps := 0, fwd
		if k-fwd < fwd {
			dir, steps = 1, k-fwd
		}
		for s := 0; s < steps; s++ {
			alpha += t.link.Alpha
			if e := effBeta[(cur*nd+dim)*2+dir]; e > maxEff {
				maxEff = e
			}
			if dir == 0 {
				if c++; c == k {
					c = 0
					cur -= (k - 1) * stride
				} else {
					cur += stride
				}
			} else {
				if c == 0 {
					c = k - 1
					cur += (k - 1) * stride
				} else {
					c--
					cur -= stride
				}
			}
		}
	}
	return alpha, maxEff
}

// addCoords returns the endpoint whose coordinates are a's plus (or, with
// neg, minus) b's, per dimension modulo the extent.
func (t *Torus) addCoords(a, b int, neg bool) int {
	res, mul := 0, 1
	for d := len(t.dims) - 1; d >= 0; d-- {
		k := t.dims[d]
		da, db := a%k, b%k
		a /= k
		b /= k
		var dc int
		if neg {
			dc = (da - db + k) % k
		} else {
			dc = (da + db) % k
		}
		res += dc * mul
		mul *= k
	}
	return res
}

// Translation returns the coordinate-wise shift carrying from onto to. The
// torus's full translation group acts transitively, so ok is always true.
// Dimension-ordered routing only looks at coordinate differences modulo
// each extent, so routes are equivariant under these shifts.
func (t *Torus) Translation(from, to int) (int, bool) {
	return t.addCoords(to, from, true), true
}

// Invert returns the token of the opposite shift.
func (t *Torus) Invert(tok int) int { return t.addCoords(0, tok, true) }

// TranslateEndpoint shifts endpoint e by the token's coordinates.
func (t *Torus) TranslateEndpoint(e, tok int) int { return t.addCoords(e, tok, false) }

// TranslateLink shifts the link's owning endpoint, keeping dimension and
// direction.
func (t *Torus) TranslateLink(l, tok int) int {
	d := len(t.dims)
	dir := l % 2
	rest := l / 2
	dim := rest % d
	e := rest / d
	return (t.addCoords(e, tok, false)*d+dim)*2 + dir
}

// Anchor returns endpoint 0: every endpoint canonicalizes to the origin.
func (t *Torus) Anchor(int) int { return 0 }
