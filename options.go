package parmm

import (
	"repro/internal/collective"
)

// Collective selects the collective-algorithm family used by the simulated
// runs (see internal/collective): Auto picks recursive doubling/halving for
// power-of-two group sizes and ring algorithms otherwise.
type Collective = collective.Algorithm

// The collective families.
const (
	// CollectiveAuto dispatches per group: recursive doubling/halving on
	// power-of-two sizes, ring otherwise. The default.
	CollectiveAuto = collective.Auto
	// CollectiveRing forces the ring algorithms (p−1 steps).
	CollectiveRing = collective.Ring
	// CollectiveRecursive forces recursive doubling/halving (group sizes
	// must be powers of two).
	CollectiveRecursive = collective.Recursive
)

// Option configures a simulated run; build an Opts with NewOpts. This is
// the recommended construction path — it composes and stays
// source-compatible as fields are added. Filling the Opts struct directly
// remains supported as the low-level path.
type Option func(*Opts)

// NewOpts builds an Opts from functional options. The zero Opts (no
// options) charges nothing per word, so most callers start with
// WithConfig(BandwidthOnly()) or an explicit α-β-γ model.
func NewOpts(options ...Option) Opts {
	var o Opts
	for _, opt := range options {
		opt(&o)
	}
	return o
}

// WithConfig sets the machine cost model.
func WithConfig(cfg MachineConfig) Option { return func(o *Opts) { o.Config = cfg } }

// WithGrid fixes the processor grid for the 3D algorithms; without it the
// eq. (3)-optimal grid is chosen.
func WithGrid(g Grid) Option { return func(o *Opts) { o.Grid = g } }

// WithCollective selects the collective implementation family.
func WithCollective(alg Collective) Option { return func(o *Opts) { o.Collective = alg } }

// WithLayers sets the replication factor c for TwoPointFiveD.
func WithLayers(c int) Option { return func(o *Opts) { o.Layers = c } }

// WithTopology runs the simulation on a concrete interconnect (built with
// ParseTopology): every message is priced through its route and the
// fabric's contention factors instead of the uniform α-β charge.
func WithTopology(t Topology) Option { return func(o *Opts) { o.Topo = t } }

// WithPlacement selects how grid ranks embed into the topology's endpoints;
// the default is PlaceContiguous. Only meaningful together with
// WithTopology.
func WithPlacement(p Placement) Option { return func(o *Opts) { o.Place = p } }

// WithTrace enables event tracing (returned in Result.Trace).
func WithTrace() Option { return func(o *Opts) { o.Trace = true } }

// WithTraffic enables per-pair traffic accounting (returned in
// Result.Traffic).
func WithTraffic() Option { return func(o *Opts) { o.Traffic = true } }
