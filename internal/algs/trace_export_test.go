package algs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/matrix"
)

// chromeTraceDoc mirrors the Chrome Trace Event Format schema that
// chrome://tracing and Perfetto consume; the test decodes the export
// through it so schema drift fails loudly.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   *float64       `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  *int           `json:"pid"`
		Tid  *int           `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestAlg1ChromeTraceSchema runs a small Alg1 instance with tracing on and
// checks the Chrome-trace export's shape: valid JSON in the trace-event
// format, exactly one phase slice per rank for each of Algorithm 1's three
// phases (All-Gather A, All-Gather B, Reduce-Scatter C), non-negative
// durations, and per-rank thread metadata.
func TestAlg1ChromeTraceSchema(t *testing.T) {
	const p = 8
	opts := bwOpts()
	opts.Trace = true
	a := matrix.Random(16, 16, 3)
	b := matrix.Random(16, 16, 4)
	res, err := Alg1(a, b, p, opts)
	if err != nil {
		t.Fatalf("Alg1: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("Opts.Trace set but Result.Trace is nil")
	}

	var buf bytes.Buffer
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeTraceDoc
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("export is not trace-event JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	threadNames := map[int]bool{}
	phaseSlices := map[string]map[int]int{} // phase name -> tid -> count
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threadNames[*e.Tid] = true
			}
		case "X":
			if e.Ts == nil || e.Dur == nil || e.Tid == nil {
				t.Fatalf("event %d: X slice missing ts/dur/tid: %+v", i, e)
			}
			if *e.Dur < 0 {
				t.Errorf("event %d (%s): negative duration %g", i, e.Name, *e.Dur)
			}
			if *e.Tid < 0 || *e.Tid >= p {
				t.Errorf("event %d (%s): tid %d outside [0,%d)", i, e.Name, *e.Tid, p)
			}
			if e.Cat == "phase" {
				if phaseSlices[e.Name] == nil {
					phaseSlices[e.Name] = map[int]int{}
				}
				phaseSlices[e.Name][*e.Tid]++
			}
		default:
			t.Errorf("event %d: unexpected phase type %q", i, e.Ph)
		}
	}
	for r := 0; r < p; r++ {
		if !threadNames[r] {
			t.Errorf("missing thread_name metadata for rank %d", r)
		}
	}
	for _, phase := range []string{PhaseGatherA, PhaseGatherB, PhaseReduceC} {
		for r := 0; r < p; r++ {
			if got := phaseSlices[phase][r]; got != 1 {
				t.Errorf("phase %q rank %d: %d slices, want 1", phase, r, got)
			}
		}
	}
}

// TestTraceBytes pins the SHA-256 of each registry algorithm's Chrome
// trace at 16³ on P = 4 under BandwidthOnly, where every compute event
// has zero length and so ties in time with its neighbours. Each rank
// records its events in program order, so the export is a function of the
// simulation alone: any pool width and any interleaving give these bytes.
// The pinned traces hold the same events as those the simulator wrote when
// it sorted one shared log by time.
func TestTraceBytes(t *testing.T) {
	want := map[string]string{
		"Alg1":          "c4033ff571c98fb4f619b540ae9faa1432037a6172bdc67c323238479afd46fd",
		"AllToAll3D":    "b8ede3b302f50051719d041157d4ced7421d15baf9b0945eacd262c4198634f4",
		"CARMA":         "ff4cac4ad88378e936b18996959a3cd06c5e7f86fe0a25c495e43930065759c9",
		"Alg1LowMem":    "272ba3c8a6c4e26c6c0a9512b6d67b56940f9a2a058185340ef36809dde9da6a",
		"OneD":          "adbf7a3fd8a3e2341f6eda38f84d788ea5c3d53b8d0b783122743ae421fc563a",
		"SUMMA":         "fafd4af260e53a182edee866d117af388366e17f5fa70d5e2ed16f2b0c9fbde7",
		"Cannon":        "badbbb4521329b52e5c01ed9e8cf7974bba6eeea031706bbdd3b1de8c5008b01",
		"TwoPointFiveD": "6ffeb2c2fdcb25b7d2214a130adbd90f81698b1f2472a02d077b62e8bb2eb314",
	}
	a := matrix.Random(16, 16, 1)
	b := matrix.Random(16, 16, 2)
	opts := bwOpts()
	opts.Trace = true
	for _, e := range Registry() {
		for run := 0; run < 3; run++ {
			res, err := e.Run(a, b, 4, opts)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			var buf bytes.Buffer
			if err := res.Trace.WriteChromeTrace(&buf); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[e.Name] {
				t.Fatalf("%s run %d: trace SHA-256 %s, want %s", e.Name, run, got, want[e.Name])
			}
		}
	}
}
