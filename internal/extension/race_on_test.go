//go:build race

package extension

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts, so the allocation test skips
// itself.
const raceEnabled = true
