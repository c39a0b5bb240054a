package algs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// The golden-stats test pins the simulator's observable accounting across
// scheduler rewrites: every scheduler change (global lock → sharded
// mailboxes, goroutine per rank → tasks on a worker pool) must leave
// WorldStats bit-identical, because critical paths and per-phase word
// counts are the measured quantities the paper's experiments compare
// against Theorem 3. Stats are pure functions of the deterministic
// communication pattern, so any correct scheduler, at any pool width, must
// land on the same bits; "close enough" is deliberately not on offer. The
// golden file is regenerated with
//
//	go test ./internal/algs -run TestGoldenWorldStats -update-golden
//
// and must only ever be refreshed for a change that deliberately alters the
// simulated communication pattern, never for a scheduler-internal one.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json from the current simulator")

// goldenRun is one pinned simulation: an algorithm on fixed inputs under a
// fixed cost model, with the full per-rank statistics it produced.
type goldenRun struct {
	Name  string           `json:"name"`
	Stats goldenWorldStats `json:"stats"`
}

// goldenWorldStats mirrors machine.WorldStats field-for-field. JSON encodes
// float64 with the shortest round-tripping representation, so an exact ==
// comparison after decode pins the values bit-for-bit.
type goldenWorldStats struct {
	CriticalPath   float64           `json:"criticalPath"`
	MaxWordsRecv   float64           `json:"maxWordsRecv"`
	MaxWordsSent   float64           `json:"maxWordsSent"`
	TotalWordsSent float64           `json:"totalWordsSent"`
	TotalMessages  int               `json:"totalMessages"`
	MaxPeakMemory  float64           `json:"maxPeakMemory"`
	Ranks          []goldenRankStats `json:"ranks"`
}

type goldenRankStats struct {
	WordsSent      float64            `json:"wordsSent"`
	WordsRecv      float64            `json:"wordsRecv"`
	MsgsSent       int                `json:"msgsSent"`
	MsgsRecv       int                `json:"msgsRecv"`
	Flops          float64            `json:"flops"`
	PeakMemory     float64            `json:"peakMemory"`
	FinalClock     float64            `json:"finalClock"`
	PhaseRecvWords map[string]float64 `json:"phaseRecvWords,omitempty"`
	PhaseSentWords map[string]float64 `json:"phaseSentWords,omitempty"`
}

func toGolden(s machine.WorldStats) goldenWorldStats {
	g := goldenWorldStats{
		CriticalPath:   s.CriticalPath,
		MaxWordsRecv:   s.MaxWordsRecv,
		MaxWordsSent:   s.MaxWordsSent,
		TotalWordsSent: s.TotalWordsSent,
		TotalMessages:  s.TotalMessages,
		MaxPeakMemory:  s.MaxPeakMemory,
	}
	for _, r := range s.Ranks {
		gr := goldenRankStats{
			WordsSent:  r.WordsSent,
			WordsRecv:  r.WordsRecv,
			MsgsSent:   r.MsgsSent,
			MsgsRecv:   r.MsgsRecv,
			Flops:      r.Flops,
			PeakMemory: r.PeakMemory,
			FinalClock: r.FinalClock,
		}
		// The golden file keys each direction's words by phase, listing a
		// phase only for a direction in which a message moved under it.
		for _, pw := range r.Phases {
			if pw.HasRecv {
				addGoldenPhase(&gr.PhaseRecvWords, pw.Phase, pw.Recv)
			}
			if pw.HasSent {
				addGoldenPhase(&gr.PhaseSentWords, pw.Phase, pw.Sent)
			}
		}
		g.Ranks = append(g.Ranks, gr)
	}
	return g
}

func addGoldenPhase(m *map[string]float64, phase string, w float64) {
	if *m == nil {
		*m = map[string]float64{}
	}
	(*m)[phase] = w
}

// goldenSuite runs every registered algorithm on fixed inputs under two cost
// models (bandwidth-only and a full α-β-γ), covering both collective
// families through the power-of-two / non-power-of-two processor counts,
// plus one topology-enabled case so contention charging is pinned too.
func goldenSuite(t *testing.T) []goldenRun {
	t.Helper()
	n := 48
	a := matrix.Random(n, n, 17)
	b := matrix.Random(n, n, 18)
	ra := matrix.Random(96, 36, 21)
	rb := matrix.Random(36, 60, 22)
	full := machine.Config{Alpha: 2, Beta: 0.5, Gamma: 0.125}

	var runs []goldenRun
	add := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("golden run %s: %v", name, err)
		}
		runs = append(runs, goldenRun{Name: name, Stats: toGolden(res.Stats)})
	}
	for _, e := range Registry() {
		res, err := e.Run(a, b, 16, Opts{Config: machine.BandwidthOnly()})
		add(fmt.Sprintf("%s/n=%d/p=16/bandwidth", e.Name, n), res, err)
		res, err = e.Run(a, b, 16, Opts{Config: full})
		add(fmt.Sprintf("%s/n=%d/p=16/abg", e.Name, n), res, err)
	}
	// Non-power-of-two fibers exercise the ring collectives; a rectangular
	// instance exercises uneven shares.
	for _, e := range []struct {
		name string
		run  Runner
	}{{"Alg1", Alg1}, {"AllToAll3D", AllToAll3D}, {"OneD", OneD}} {
		res, err := e.run(ra, rb, 12, Opts{Config: full})
		add(fmt.Sprintf("%s/rect/p=12/abg", e.name), res, err)
	}
	// A congested tree topology pins the contention-aware charge arithmetic
	// on top of the scheduler, so a scheduler rewrite cannot silently
	// bypass the network oracle.
	tree, err := topo.Parse("tree=2x4", 16, topo.Link{Alpha: full.Alpha, Beta: full.Beta})
	if err != nil {
		t.Fatalf("golden topology: %v", err)
	}
	res, err := Alg1(a, b, 16, Opts{Config: full, Topo: tree})
	add("Alg1/n=48/p=16/abg/tree=2x4", res, err)
	return runs
}

func TestGoldenWorldStats(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats.json")
	got := goldenSuite(t)

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", path, len(got))
		return
	}

	compareGoldenSuite(t, got, readGolden(t))
}

// TestGoldenWorldStatsEventEngine replays the identical pinned suite on the
// event scheduler at fixed pool widths and holds every width to the same
// golden file. The pool takes one worker per GOMAXPROCS, so a single
// worker stepping every rank and four workers handing messages across
// shards must both land on the pinned bits, whatever the host's core count.
func TestGoldenWorldStatsEventEngine(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is regenerated by TestGoldenWorldStats")
	}
	want := readGolden(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			compareGoldenSuite(t, goldenSuite(t), want)
		})
	}
}

func readGolden(t *testing.T) []goldenRun {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_stats.json"))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	return want
}

func compareGoldenSuite(t *testing.T, got, want []goldenRun) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("suite has %d runs, golden file has %d", len(got), len(want))
	}
	for i := range got {
		compareGoldenRun(t, got[i], want[i])
	}
}

func compareGoldenRun(t *testing.T, got, want goldenRun) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("run %q: golden file has %q at this position", got.Name, want.Name)
		return
	}
	g, w := got.Stats, want.Stats
	if g.CriticalPath != w.CriticalPath {
		t.Errorf("%s: CriticalPath = %v, golden %v", got.Name, g.CriticalPath, w.CriticalPath)
	}
	if g.MaxWordsRecv != w.MaxWordsRecv || g.MaxWordsSent != w.MaxWordsSent {
		t.Errorf("%s: max words recv/sent = %v/%v, golden %v/%v", got.Name, g.MaxWordsRecv, g.MaxWordsSent, w.MaxWordsRecv, w.MaxWordsSent)
	}
	if g.TotalWordsSent != w.TotalWordsSent || g.TotalMessages != w.TotalMessages {
		t.Errorf("%s: totals = %v words / %d msgs, golden %v / %d", got.Name, g.TotalWordsSent, g.TotalMessages, w.TotalWordsSent, w.TotalMessages)
	}
	if g.MaxPeakMemory != w.MaxPeakMemory {
		t.Errorf("%s: MaxPeakMemory = %v, golden %v", got.Name, g.MaxPeakMemory, w.MaxPeakMemory)
	}
	if len(g.Ranks) != len(w.Ranks) {
		t.Errorf("%s: %d ranks, golden %d", got.Name, len(g.Ranks), len(w.Ranks))
		return
	}
	for r := range g.Ranks {
		gr, wr := g.Ranks[r], w.Ranks[r]
		if gr.WordsSent != wr.WordsSent || gr.WordsRecv != wr.WordsRecv ||
			gr.MsgsSent != wr.MsgsSent || gr.MsgsRecv != wr.MsgsRecv ||
			gr.Flops != wr.Flops || gr.PeakMemory != wr.PeakMemory ||
			gr.FinalClock != wr.FinalClock {
			t.Errorf("%s: rank %d scalar stats differ: got %+v, golden %+v", got.Name, r, gr, wr)
		}
		comparePhases(t, got.Name, r, "recv", gr.PhaseRecvWords, wr.PhaseRecvWords)
		comparePhases(t, got.Name, r, "sent", gr.PhaseSentWords, wr.PhaseSentWords)
	}
}

func comparePhases(t *testing.T, run string, rank int, kind string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: rank %d has %d %s phases, golden %d", run, rank, len(got), kind, len(want))
		return
	}
	for phase, v := range want {
		if gv, ok := got[phase]; !ok || gv != v {
			t.Errorf("%s: rank %d %s phase %q = %v, golden %v", run, rank, kind, phase, gv, v)
		}
	}
}
