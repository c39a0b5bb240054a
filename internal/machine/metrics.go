package machine

import "repro/internal/obs"

// Machine-level metrics, registered once in the process-wide obs registry.
// Every update site is gated on obs.Enabled() (off by default), and the
// per-message counters are striped by rank id so enabling metrics does not
// put one contended cache line in the middle of the sharded scheduler.
var (
	mWorlds = obs.Default.Counter("machine_worlds_total",
		"Simulated worlds created.")
	mDeadlocks = obs.Default.Counter("machine_deadlocks_total",
		"Simulations aborted on an exact deadlock verdict.")
	mSends = obs.Default.Striped("machine_sends_total",
		"Point-to-point messages posted by simulated ranks.")
	mRecvs = obs.Default.Striped("machine_recvs_total",
		"Point-to-point messages consumed by simulated ranks.")
	mDirect = obs.Default.Striped("machine_direct_deliveries_total",
		"Messages handed straight to a receiver parked for them, never stored.")
	mWordsSent = obs.Default.Striped("machine_words_sent_total",
		"Words of payload posted by simulated ranks.")
	mWordsRecv = obs.Default.Striped("machine_words_recv_total",
		"Words of payload consumed by simulated ranks.")
)
