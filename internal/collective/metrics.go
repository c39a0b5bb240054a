package collective

import "repro/internal/obs"

// Collective-operation counters, one labeled child per operation in a
// single collective_ops_total family. Counts are taken once per member per
// call at each operation's public entry point (the *VInto sinks for the
// all-gather and reduce-scatter variant families). Counters are striped by
// the calling rank's id: every member of a group enters the collective
// concurrently, and a single shared cache line here would serialize what
// the sharded scheduler keeps parallel.
var (
	mOpAllGather     = collectiveOp("allgather")
	mOpReduceScatter = collectiveOp("reducescatter")
	mOpBcast         = collectiveOp("bcast")
	mOpAllToAll      = collectiveOp("alltoall")
)

func collectiveOp(op string) *obs.Striped {
	return obs.Default.Striped("collective_ops_total",
		"Collective operations entered, per member call.",
		"op", op)
}

// countOp bumps a collective counter for this group's rank when metrics are
// enabled.
func (g *Group) countOp(c *obs.Striped) {
	if obs.Enabled() {
		c.Inc(g.rank.ID())
	}
}
