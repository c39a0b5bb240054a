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
