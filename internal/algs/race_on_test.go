//go:build race

package algs

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts, so the alloc-regression tests
// skip themselves.
const raceEnabled = true
