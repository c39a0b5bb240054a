package topo

import "fmt"

// Flat is the paper's fully connected network: a dedicated directed link
// per ordered endpoint pair, so no two flows ever share a link and every
// message is charged exactly (α, β). It exists so topology-aware code paths
// can be exercised while reproducing the uniform model bit-for-bit —
// Network special-cases it to a uniform charge and never materializes its
// p² link ids.
type Flat struct {
	p    int
	link Link
}

// NewFlat builds the fully connected topology on p endpoints.
func NewFlat(p int, link Link) *Flat {
	if p <= 0 {
		panic(fmt.Sprintf("topo: flat with %d endpoints", p))
	}
	return &Flat{p: p, link: link}
}

// Name returns "flat".
func (f *Flat) Name() string { return "flat" }

// P returns the endpoint count.
func (f *Flat) P() int { return f.p }

// NodeSize returns 1: a flat network has no locality unit.
func (f *Flat) NodeSize() int { return 1 }

// NumLinks returns p², one dedicated link per ordered pair (diagonal ids
// unused).
func (f *Flat) NumLinks() int { return f.p * f.p }

// Route returns the single dedicated link of the pair.
func (f *Flat) Route(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	return append(buf, src*f.p+dst)
}

// Link returns the uniform link cost.
func (f *Flat) Link() Link { return f.link }

// LinkFlows gives every dedicated link its one pair. The unused diagonal
// ids s·p+s are exactly the multiples of p+1 below p².
func (f *Flat) LinkFlows(flows []int) {
	for id := range flows {
		if id%(f.p+1) != 0 {
			flows[id] = 1
		}
	}
}

// WalkCharge prices the pair's one dedicated link.
func (f *Flat) WalkCharge(effBeta []float64, src, dst int) (alpha, maxEff float64) {
	if src == dst {
		return 0, 0
	}
	return f.link.Alpha, effBeta[src*f.p+dst]
}
