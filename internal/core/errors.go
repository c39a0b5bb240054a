package core

import "errors"

// The public error taxonomy. Every validation failure in the library wraps
// exactly one of these sentinels (with %w), so callers dispatch with
// errors.Is instead of matching message strings — the HTTP service maps
// them onto status codes the same way. The root parmm package re-exports
// them.
var (
	// ErrBadDims marks invalid matrix dimensions: non-positive sizes,
	// operand shapes that do not conform, or shapes so large their
	// products exceed 2^53 and would lose precision in the float64
	// arithmetic the bounds use.
	ErrBadDims = errors.New("invalid matrix dimensions")

	// ErrBadProcessorCount marks a processor count an algorithm cannot use:
	// non-positive, non-square for Cannon, not a power of two for CARMA,
	// not q²c for 2.5D, and so on.
	ErrBadProcessorCount = errors.New("invalid processor count")

	// ErrGridMismatch marks a processor grid that does not fit the run: the
	// wrong total size, non-positive extents, extents exceeding (or not
	// dividing, where exactness demands it) the matrix dimensions, or an
	// analytic §5.2 grid that is not integral.
	ErrGridMismatch = errors.New("processor grid mismatch")

	// ErrUnsupportedAlg marks a request for an algorithm this library does
	// not implement (e.g. an unknown registry name).
	ErrUnsupportedAlg = errors.New("unsupported algorithm")

	// ErrBadOpts marks invalid run options: negative worker or layer
	// counts, an unknown collective family, chunk counts below one.
	ErrBadOpts = errors.New("invalid options")

	// ErrBadTopology marks an invalid interconnect topology: an unknown or
	// malformed spec, a shape whose endpoint count does not match the
	// machine's rank count, an unknown placement policy, or a non-flat
	// topology too large for per-pair charge tables.
	ErrBadTopology = errors.New("invalid topology")

	// ErrTooManyRanks marks a world size beyond what the simulator supports
	// (machine.MaxRanks, 2^31−1) or a serving admission limit allows. The
	// HTTP service maps it to 400 so an oversize request is rejected, not a
	// crash.
	ErrTooManyRanks = errors.New("too many ranks")

	// ErrBadPlanRange marks an invalid strong-scaling plan request: a
	// non-positive per-rank memory, an empty or inverted processor range, a
	// negative stride, a range too large for the serving limits, or a
	// fixed-size topology spec asked to span more than one processor count.
	ErrBadPlanRange = errors.New("invalid plan range")

	// ErrBadProgram marks an invalid HBL array program: no loop indices,
	// duplicate index or array names, an array referencing an unknown or
	// repeated index, a loop index no array refers to (the HBL linear
	// program is infeasible there — no product of projections can bound the
	// iteration space), extents that are missing where a bound needs them,
	// non-positive, or so large their product exceeds 2^53, or a program
	// over the size caps the exact-rational solver accepts. The HTTP service
	// maps it to 400 with kind "bad_program".
	ErrBadProgram = errors.New("invalid array program")
)
