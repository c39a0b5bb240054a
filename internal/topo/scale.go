package topo

import "strconv"

// Translatable is the optional symmetry contract of fabrics whose routing
// is equivariant under a transitive-enough translation group: translating
// both endpoints of a pair translates every link of its route. Congestion
// reports and the model's worst-fiber sweep use it to route one
// representative fiber per symmetry class instead of every fiber.
//
// Tokens t name group elements. Implementations must guarantee
// Route(T_t(s), T_t(d)) = T_t(Route(s, d)) link by link, and that the
// all-to-all flow count (hence β·χ) of link T_t(l) equals that of l.
type Translatable interface {
	// Translation returns a token carrying endpoint from onto endpoint to,
	// or ok=false when no group element does.
	Translation(from, to int) (t int, ok bool)
	// Invert returns the token of the inverse translation.
	Invert(t int) int
	// TranslateEndpoint applies token t to an endpoint.
	TranslateEndpoint(e, t int) int
	// TranslateLink applies token t to a link id.
	TranslateLink(l, t int) int
	// Anchor returns the canonical image of endpoint e: the target
	// Translation(e, Anchor(e)) must reach. Canonicalizing a fiber moves
	// its first member to its anchor, so translated fibers canonicalize
	// to the same representative.
	Anchor(e int) int
}

// canonicalFiber translates the fiber's endpoint list so its first member
// lands on the fabric's anchor, returning the canonical representative,
// its encoded class key, and the inverse token mapping canonical links
// back onto this fiber's links.
func canonicalFiber(tr Translatable, eps []int) (key string, canon []int, inv int, ok bool) {
	t0, ok := tr.Translation(eps[0], tr.Anchor(eps[0]))
	if !ok {
		return "", nil, 0, false
	}
	canon = make([]int, len(eps))
	buf := make([]byte, 0, 8*len(eps))
	for i, e := range eps {
		ce := tr.TranslateEndpoint(e, t0)
		canon[i] = ce
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(ce), 36)
	}
	return string(buf), canon, tr.Invert(t0), true
}

// FiberClassKey returns a key identifying the translation-symmetry class
// of the given ranks' endpoint images under net's placement, and whether
// net's fabric has the symmetry at all. Fibers with equal keys are exact
// translates: their routes cross translated links with identical flow
// counts, so any aggregate of net's charges over a fiber's pairs is
// identical across the class. Callers use this to visit one fiber per
// class; ok=false means no symmetry is available and every fiber must be
// visited.
func FiberClassKey(net *Network, ranks []int) (string, bool) {
	tr, ok := net.topo.(Translatable)
	if !ok || len(ranks) == 0 {
		return "", false
	}
	eps := make([]int, len(ranks))
	for i, r := range ranks {
		eps[i] = net.pl.ToEndpoint[r]
	}
	key, _, _, ok := canonicalFiber(tr, eps)
	return key, ok
}
