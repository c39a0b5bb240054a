//go:build race

package grid

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so the allocation pins skip themselves.
const raceEnabled = true
