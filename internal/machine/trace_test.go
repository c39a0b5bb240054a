package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRecordsEvents(t *testing.T) {
	w := NewWorld(2, Config{Alpha: 1, Beta: 1, Gamma: 0.5})
	tr := w.EnableTracing()
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(10) // [0, 5]
			r.SetPhase("main")
			r.Send(1, 7, []float64{1, 2, 3}) // [5, 9]
		} else {
			r.Recv(0, 7) // [0, 9]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	// Sorted by rank then start: compute, send, recv.
	if events[0].Kind != EventCompute || events[0].Start != 0 || events[0].End != 5 {
		t.Fatalf("compute event wrong: %+v", events[0])
	}
	if events[1].Kind != EventSend || events[1].Start != 5 || events[1].End != 9 || events[1].Peer != 1 || events[1].Phase != "main" {
		t.Fatalf("send event wrong: %+v", events[1])
	}
	if events[2].Kind != EventRecv || events[2].Rank != 1 || events[2].Start != 0 || events[2].End != 9 {
		t.Fatalf("recv event wrong: %+v", events[2])
	}
	if EventSend.String() != "send" || EventRecv.String() != "recv" || EventCompute.String() != "compute" {
		t.Fatal("kind names")
	}
}

func TestTimelineAndSummaryRender(t *testing.T) {
	w := NewWorld(3, Config{Alpha: 0, Beta: 1, Gamma: 1})
	tr := w.EnableTracing()
	err := w.Run(func(r *Rank) {
		r.Compute(50)
		next := (r.ID() + 1) % 3
		prev := (r.ID() + 2) % 3
		r.Send(next, 0, make([]float64, 25))
		r.Recv(prev, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := tr.Timeline(60)
	if !strings.Contains(tl, "rank   0") || !strings.Contains(tl, "#") || !strings.Contains(tl, ">") {
		t.Fatalf("timeline missing content:\n%s", tl)
	}
	if lines := strings.Count(tl, "\n"); lines != 4 { // header + 3 ranks
		t.Fatalf("timeline has %d lines:\n%s", lines, tl)
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "compute") || !strings.Contains(sum, "50") {
		t.Fatalf("summary missing content:\n%s", sum)
	}
}

func TestTimelineEmptyTrace(t *testing.T) {
	tr := NewWorld(2, BandwidthOnly()).EnableTracing()
	if s := tr.Timeline(40); strings.Count(s, "rank") != 2 {
		t.Fatalf("empty timeline broken:\n%s", s)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1})
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.trace != nil {
		t.Fatal("trace attached without EnableTracing")
	}
}

// TestTrafficMatrix sums a traced run's sends per (source, destination)
// pair.
func TestTrafficMatrix(t *testing.T) {
	w := NewWorld(3, BandwidthOnly())
	tr := w.EnableTracing()
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 10))
			r.Send(2, 0, make([]float64, 5))
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := tr.Traffic()
	if tm.Words(0, 1) != 10 || tm.Words(0, 2) != 5 || tm.Words(1, 0) != 0 {
		t.Fatalf("traffic wrong: %v %v %v", tm.Words(0, 1), tm.Words(0, 2), tm.Words(1, 0))
	}
	if tm.ActivePairs() != 2 {
		t.Fatalf("active pairs = %d", tm.ActivePairs())
	}
	hm := tm.Heatmap()
	if !strings.Contains(hm, "#") || strings.Count(hm, "|") != 6 {
		t.Fatalf("heatmap broken:\n%s", hm)
	}
}

// TestTrafficHeatmapAllZero: a traced run that sends nothing has no
// active pair and renders an empty heatmap.
func TestTrafficHeatmapAllZero(t *testing.T) {
	w := NewWorld(2, BandwidthOnly())
	tr := w.EnableTracing()
	if err := w.Run(func(r *Rank) {}); err != nil {
		t.Fatal(err)
	}
	tm := tr.Traffic()
	if tm.ActivePairs() != 0 {
		t.Fatal("no traffic expected")
	}
	if hm := tm.Heatmap(); !strings.Contains(hm, "max cell 0") {
		t.Fatalf("zero heatmap: %s", hm)
	}
}

// TestTrafficHeatmapFixedWidth: past 64 ranks the heatmap bins the ranks
// into 64 groups per axis, so its grid has 64 rows of 64 glyphs at any P.
// On a ring of 100 ranks each cell on the group diagonal or just above it
// carries one 4-word send, and no other cell carries any.
func TestTrafficHeatmapFixedWidth(t *testing.T) {
	const p = 100
	w := NewWorld(p, BandwidthOnly())
	tr := w.EnableTracing()
	err := w.Run(func(r *Rank) {
		r.Send((r.ID()+1)%p, 0, make([]float64, 4))
		r.Recv((r.ID()+p-1)%p, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	hm := tr.Traffic().Heatmap()
	lines := strings.Split(strings.TrimSuffix(hm, "\n"), "\n")
	if want := "traffic heatmap (100 ranks in 64 groups per axis, max cell 4 words)"; lines[0] != want {
		t.Fatalf("header %q, want %q", lines[0], want)
	}
	if len(lines) != 1+64 {
		t.Fatalf("%d grid rows, want 64:\n%s", len(lines)-1, hm)
	}
	for i, line := range lines[1:] {
		if len(line) != 66 || line[0] != '|' || line[65] != '|' {
			t.Fatalf("row %d is %q, want 64 glyphs between bars", i, line)
		}
		if n := strings.Count(line, "#"); n < 1 || n > 2 {
			t.Fatalf("row %d has %d busy cells, want 1 or 2: %q", i, n, line)
		}
	}
}

// TestChromeTraceEmpty pins the degenerate exports: a nil trace, a zero
// Trace, and an enabled trace of a world that never ran must all emit valid
// JSON whose traceEvents is an array, never null — downstream viewers
// reject the latter. Only the last has ranks to name.
func TestChromeTraceEmpty(t *testing.T) {
	cases := []struct {
		name  string
		trace *Trace
		p     int
	}{
		{"nil trace", nil, 0},
		{"zero trace", &Trace{}, 0},
		{"enabled, never run", NewWorld(2, BandwidthOnly()).EnableTracing(), 2},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.trace.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", tc.name, err, buf.String())
		}
		if !strings.Contains(buf.String(), `"traceEvents":[`) {
			t.Errorf("%s: traceEvents is not an array:\n%s", tc.name, buf.String())
		}
		want := 0 // with ranks: one process_name record, one thread_name each
		if tc.p > 0 {
			want = 1 + tc.p
		}
		if len(doc.TraceEvents) != want {
			t.Errorf("%s: want %d metadata records, got %d", tc.name, want, len(doc.TraceEvents))
		}
	}
}

// TestChromeTraceSingleRank checks a 1-rank world — which can never send or
// receive — still exports a valid document with its thread metadata and any
// compute slices.
func TestChromeTraceSingleRank(t *testing.T) {
	w := NewWorld(1, Config{Gamma: 1})
	tr := w.EnableTracing()
	if err := w.Run(func(r *Rank) { r.Compute(4) }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var compute, thread bool
	for _, e := range doc.TraceEvents {
		compute = compute || e.Name == "compute"
		thread = thread || e.Name == "thread_name"
	}
	if !compute || !thread {
		t.Errorf("single-rank export missing compute slice (%v) or thread metadata (%v):\n%s", compute, thread, buf.String())
	}
}

// TestTraceNilAccessors checks the nil-trace accessors used by the export.
func TestTraceNilAccessors(t *testing.T) {
	var tr *Trace
	if got := tr.Events(); got != nil {
		t.Errorf("nil Events = %v", got)
	}
	if got := tr.Phases(); got != nil {
		t.Errorf("nil Phases = %v", got)
	}
	if tm := tr.Traffic(); tm.p != 0 || len(tm.words) != 0 {
		t.Errorf("nil Traffic = %+v, want an empty matrix", tm)
	}
}

// TestRecordingIndependentOfPoolWidth: each rank appends to its own event
// and phase-span logs without a lock, so a world records the same events,
// spans and traffic at every shard count and on every run. Compute is free
// here, so its events tie in time with their neighbours. Under -race this
// checks the lock-free recorder.
func TestRecordingIndependentOfPoolWidth(t *testing.T) {
	const p = 16
	type recording struct {
		events  []Event
		phases  []PhaseSpan
		traffic []float64
	}
	record := func(shards int) recording {
		w := testWorld(t, p, Config{Beta: 1}, shards)
		tr := w.EnableTracing()
		err := w.Run(func(r *Rank) {
			me := r.ID()
			for round := 0; round < 4; round++ {
				r.SetPhase(fmt.Sprintf("round-%d", round%2))
				for d := 1; d <= 3; d++ {
					r.Send((me+d)%p, round, make([]float64, 1+me%3))
					r.Compute(8)
				}
				for d := 3; d >= 1; d-- {
					r.PutBuffer(r.Recv((me+p-d)%p, round))
				}
			}
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return recording{tr.Events(), tr.Phases(), tr.Traffic().words}
	}
	want := record(1)
	if len(want.events) != p*4*9 || len(want.phases) != p*4 {
		t.Fatalf("recorded %d events and %d spans, want %d and %d", len(want.events), len(want.phases), p*4*9, p*4)
	}
	for _, shards := range []int{1, 2, 4, 7, 4} {
		if got := record(shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: recording differs from the one-shard run", shards)
		}
	}
}
