package benchrec

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// TestCountingRun: every rank sends one word to its mirror and one in a
// ring shift, except that the middle rank of an odd world has no mirror,
// so a world of P ranks moves 2P − (P mod 2) messages and words, and its
// critical path is two words; a world size the simulator refuses is an
// error wrapping the taxonomy kind, not a panic.
func TestCountingRun(t *testing.T) {
	for _, p := range []int{2, 3, 999, 1000} {
		_, stats, err := CountingRun(p)
		if err != nil {
			t.Fatal(err)
		}
		want := 2*p - p%2
		if stats.TotalMessages != want || stats.TotalWordsSent != float64(want) || stats.CriticalPath != 2 {
			t.Fatalf("P=%d: %d messages, %g words, critical path %g; want %d, %d, 2",
				p, stats.TotalMessages, stats.TotalWordsSent, stats.CriticalPath, want, want)
		}
	}
	for _, tc := range []struct {
		p    int
		want error
	}{
		{0, core.ErrBadProcessorCount},
		{machine.MaxRanks + 1, core.ErrTooManyRanks},
	} {
		if _, _, err := CountingRun(tc.p); !errors.Is(err, tc.want) {
			t.Errorf("CountingRun(%d) = %v, want %v", tc.p, err, tc.want)
		}
	}
}
