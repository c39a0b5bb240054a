package machine_test

import (
	"runtime"
	"testing"

	"repro/internal/algs"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// TestDirectDeliveriesAlg1 pins machine_direct_deliveries_total for
// Algorithm 1 at 64³ on P = 64 on one shard, where the schedule, and
// so which messages find their receiver parked for them, is fixed.
func TestDirectDeliveriesAlg1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	const n, p, want = 64, 64, 192
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	before := machine.DirectDeliveries()
	res, err := algs.Alg1(a, b, p, algs.Opts{Config: machine.BandwidthOnly()})
	if err != nil {
		t.Fatal(err)
	}
	got := machine.DirectDeliveries() - before
	t.Logf("%d of %d messages went straight to a parked receiver", got, res.Stats.TotalMessages)
	if got != want {
		t.Errorf("Alg1 at %d³ on P=%d handed %d messages to parked receivers, want %d", n, p, got, want)
	}
}
