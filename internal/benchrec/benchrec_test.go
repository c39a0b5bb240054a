package benchrec

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// TestCountingRun: every rank sends one word in each of two ring shifts,
// so a world of P ranks moves 2P messages and 2P words, and its critical
// path is two words; a world size the simulator refuses is an error
// wrapping the taxonomy kind, not a panic.
func TestCountingRun(t *testing.T) {
	const p = 1000
	_, stats, err := CountingRun(p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMessages != 2*p || stats.TotalWordsSent != 2*p || stats.CriticalPath != 2 {
		t.Fatalf("P=%d: %d messages, %g words, critical path %g; want %d, %d, 2",
			p, stats.TotalMessages, stats.TotalWordsSent, stats.CriticalPath, 2*p, 2*p)
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
