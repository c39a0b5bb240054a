package service

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/topo"
)

// The memo layer: typed wrappers putting the sharded LRU in front of the
// expensive pure computations. Keys spell out the full input tuple — dims,
// P, and the machine config where the result depends on it — so equal keys
// imply equal computations and a hit can be returned verbatim. Keys are
// namespaced per computation ("og:", "om:", "pt:", "pp:", "hb:") because the
// same (dims, P) pair appears under several of them. A computation costing
// less than a lookup (a memo hit takes about half a microsecond and several
// allocations) is not memoized: core.LowerBound, grid.CaseGrid and
// model.Alg1Time are called directly.

func dimsKey(d core.Dims, p int) string {
	return fmt.Sprintf("%d:%d:%d:%d", d.N1, d.N2, d.N3, p)
}

// optimalGrid is grid.Optimal through the cache — the exhaustive divisor
// search is the service's most expensive synchronous computation (quadratic
// in the divisor count of P).
func (s *Server) optimalGrid(d core.Dims, p int) grid.Grid {
	return s.cache.GetOrCompute("og:"+dimsKey(d, p), func() any {
		return grid.Optimal(d, p)
	}).(grid.Grid)
}

// topoPredictResult caches model.Alg1TimeTopo's outcome, error included —
// a failed prediction is as deterministic as a successful one.
type topoPredictResult struct {
	pred model.TopoPrediction
	err  error
}

// predictTopo is model.Alg1TimeTopo through the cache: building the
// network's charge oracle is O(links) and the fiber sweep is linear in P
// on fabrics without translation symmetry, so repeated requests for the
// same fabric amortize both. The key spells out the problem shape, grid
// and config, then the fabric name and placement.
func (s *Server) predictTopo(d core.Dims, g grid.Grid, cfg machine.Config, fabric topo.Topology, place topo.Policy) (model.TopoPrediction, error) {
	key := fmt.Sprintf("pt:%s:%d:%d:%d:%g:%g:%g:%s:%s",
		dimsKey(d, g.Size()), g.P1, g.P2, g.P3, cfg.Alpha, cfg.Beta, cfg.Gamma, fabric.Name(), place)
	r := s.cache.GetOrCompute(key, func() any {
		net, err := topo.NewNetwork(fabric, place)
		if err != nil {
			return topoPredictResult{err: err}
		}
		pred, err := model.Alg1TimeTopo(d, g, cfg, collective.Auto, net)
		return topoPredictResult{pred: pred, err: err}
	}).(topoPredictResult)
	return r.pred, r.err
}
