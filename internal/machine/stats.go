package machine

// RankStats holds the per-processor accounting the lower bounds constrain.
type RankStats struct {
	// WordsSent and WordsRecv count the words of all point-to-point
	// messages posted and received by the rank. For the balanced
	// collectives in internal/collective, WordsRecv per rank equals the
	// textbook (1 − 1/p)·w collective cost the paper's §5.1 uses.
	WordsSent, WordsRecv float64
	// MsgsSent and MsgsRecv count messages (the latency term multiplier).
	MsgsSent, MsgsRecv int
	// Flops counts scalar operations charged via Compute.
	Flops float64
	// PeakMemory is the high-water mark of GrowMemory/ShrinkMemory
	// accounting, in words.
	PeakMemory float64
	// FinalClock is the rank's simulated time when the SPMD body returned.
	FinalClock float64
	// Phases breaks communication down by the labels set with SetPhase,
	// one entry per label in the order the rank first moved a message
	// under it; Phase looks a label up.
	Phases []PhaseWords
}

// PhaseWords is the traffic a rank moved under one SetPhase label.
type PhaseWords struct {
	Phase string
	// Sent and Recv count the words moved in each direction. HasSent and
	// HasRecv report whether any message, even an empty one, moved in
	// that direction; a direction without one reads 0 and false.
	Sent, Recv       float64
	HasSent, HasRecv bool
}

// Phase returns the rank's traffic under label: zero words in both
// directions when no message moved under it.
func (s RankStats) Phase(label string) PhaseWords {
	for _, pw := range s.Phases {
		if pw.Phase == label {
			return pw
		}
	}
	return PhaseWords{Phase: label}
}

// WorldStats aggregates rank statistics after a Run.
type WorldStats struct {
	Ranks []RankStats
	// CriticalPath is the maximum final clock over ranks — the simulated
	// execution time under the α-β-γ model.
	CriticalPath float64
	// MaxWordsRecv and MaxWordsSent are the per-rank maxima: the
	// quantities Theorem 3 lower-bounds (communication along the critical
	// path is at least what the busiest processor moves).
	MaxWordsRecv, MaxWordsSent float64
	// TotalWordsSent is the network-wide traffic (each word counted once).
	TotalWordsSent float64
	// TotalMessages is the network-wide message count.
	TotalMessages int
	// MaxPeakMemory is the largest per-rank memory watermark.
	MaxPeakMemory float64
}

// CommCost returns the per-processor communication volume used throughout
// the experiments: the maximum over ranks of words received. For the
// symmetric algorithms in this repository it equals the maximum of words
// sent; both are reported in WorldStats for asymmetric patterns.
func (s WorldStats) CommCost() float64 { return s.MaxWordsRecv }

// MaxPhaseRecv returns the per-rank maximum of received words in a phase.
func (s WorldStats) MaxPhaseRecv(phase string) float64 {
	m := 0.0
	for i := range s.Ranks {
		m = max(m, s.Ranks[i].Phase(phase).Recv)
	}
	return m
}
