package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call made by the traced replay. Spans live in memory
// and are written out once, when the run ends.
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's origin
	parent     int           // index of the enclosing span; -1 for a root
	op         int           // operation id; -1 for the layer measurements
}

// recorder collects the spans of one traced run. The replay is sequential,
// so a recorder is used from one goroutine only.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index for end and for child spans.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent, op: op})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) { r.spans[i].end = time.Since(r.origin) }

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent, op int, f func()) time.Duration {
	i := r.begin(name, parent, op)
	f()
	r.end(i)
	return r.spans[i].end - r.spans[i].start
}

// add records a span whose bounds were taken outside the recorder, such as
// one chunk of a sweep whose end is known only when the chunk is emitted.
func (r *recorder) add(name string, parent, op int, start, end time.Time) {
	r.spans = append(r.spans, span{
		name: name, start: start.Sub(r.origin), end: end.Sub(r.origin), parent: parent, op: op,
	})
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap one another; the
// covered part is the length of the union of their intervals, clipped to
// the parent's.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// within parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type interval struct{ lo, hi time.Duration }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfByName returns, for each span name, the self time in nanoseconds
// summed within each operation, one entry per operation that has a span of
// that name.
func selfByName(spans []span, self []time.Duration) map[string][]float64 {
	perOp := make(map[string]map[int]time.Duration)
	for i, s := range spans {
		if s.op < 0 {
			continue
		}
		if perOp[s.name] == nil {
			perOp[s.name] = make(map[int]time.Duration)
		}
		perOp[s.name][s.op] += self[i]
	}
	out := make(map[string][]float64, len(perOp))
	for name, byOp := range perOp {
		for _, d := range byOp {
			out[name] = append(out[name], float64(d))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome trace (chrome://tracing or
// ui.perfetto.dev), microsecond timestamps, with each span's operation id,
// parent name and self time in its args.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.op, "parent": parent, "self_us": us(self[i])},
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}
