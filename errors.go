package parmm

import "repro/internal/core"

// The public error taxonomy. Every validation failure returned by this
// package wraps exactly one of these sentinels, so callers dispatch with
// errors.Is rather than matching message text:
//
//	if _, err := parmm.CaseGrid(d, p); errors.Is(err, parmm.ErrGridMismatch) {
//	    g = parmm.OptimalGrid(d, p) // fall back to the exhaustive search
//	}
//
// The parmmd HTTP service maps the same sentinels onto status codes
// (ErrBadDims, ErrBadProcessorCount, ErrBadOpts, ErrBadTopology,
// ErrBadPlanRange → 400; ErrGridMismatch, ErrUnsupportedAlg → 422).
var (
	// ErrBadDims marks invalid matrix dimensions: non-positive sizes or
	// operand shapes that do not conform.
	ErrBadDims = core.ErrBadDims

	// ErrBadProcessorCount marks a processor count an algorithm cannot
	// use: non-positive, non-square for Cannon, not a power of two for
	// CARMA, not q²c for TwoPointFiveD, and so on.
	ErrBadProcessorCount = core.ErrBadProcessorCount

	// ErrGridMismatch marks a processor grid that does not fit the run:
	// wrong total size, non-positive extents, extents exceeding (or, where
	// exactness demands, not dividing) the matrix dimensions, or an
	// analytic §5.2 grid that is not integral.
	ErrGridMismatch = core.ErrGridMismatch

	// ErrUnsupportedAlg marks a request for an algorithm this library does
	// not implement.
	ErrUnsupportedAlg = core.ErrUnsupportedAlg

	// ErrBadOpts marks invalid run options (Opts.Validate failures):
	// negative worker or layer counts, an unknown collective family, chunk
	// counts below one.
	ErrBadOpts = core.ErrBadOpts

	// ErrBadTopology marks an invalid interconnect topology: an unknown or
	// malformed spec string, a fabric whose endpoint count does not match
	// the run's processor count, or an unknown placement policy.
	ErrBadTopology = core.ErrBadTopology

	// ErrTooManyRanks marks a processor count beyond what the simulator
	// supports (2^31−1 ranks).
	ErrTooManyRanks = core.ErrTooManyRanks

	// ErrBadPlanRange marks an invalid strong-scaling plan request: a
	// non-positive or infinite memory budget, an empty or inverted
	// processor range, a negative stride, a range expanding past the point
	// budget, or a fixed-size topology asked to span several P.
	ErrBadPlanRange = core.ErrBadPlanRange

	// ErrBadProgram marks an invalid HBL array program (ParseProgram or
	// BoundForProgram failures): malformed DSL text, duplicate or unknown
	// names, an index no array references, missing or oversized extents.
	ErrBadProgram = core.ErrBadProgram
)
