package machine

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Trace Event Format consumed by
// chrome://tracing and Perfetto: a complete ("X") slice with microsecond
// timestamps, or a metadata ("M") record naming processes and threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the format (the variant that
// tolerates extra top-level metadata).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the trace as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. One simulated time unit maps
// to one microsecond. Each rank renders as a thread carrying:
//
//   - one slice per phase span (cat "phase") — for Algorithm 1 these are
//     the All-Gather A, All-Gather B, and Reduce-Scatter C phases whose
//     per-phase costs eq. (3) decomposes, so the exported schedule can be
//     compared against the paper's cost split visually;
//   - one slice per traced send/recv/compute event (cat by kind), nested
//     inside its phase slice, with words, peer, and tag in args.
//
// Every rank of the traced world is named, whether or not it recorded
// anything. The output depends only on the simulation, not on how its
// ranks were scheduled, so two traces of one run are byte-identical.
//
// The export degrades gracefully at the edges: a nil trace, a world with
// no events (and a single-rank world, which never communicates) still
// writes a valid JSON document whose traceEvents is a JSON array —
// metadata records only, or literally [] when there is nothing at all to
// name.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	p := t.Ranks()
	if p > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Args: map[string]any{"name": "mmsim"},
		})
	}
	for r := 0; r < p; r++ {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
	}
	for _, s := range t.Phases() {
		dur := s.End - s.Start
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Phase, Cat: "phase", Ph: "X",
			Ts: s.Start, Dur: &dur, Tid: s.Rank,
		})
	}
	for _, e := range t.Events() {
		dur := e.End - e.Start
		ce := chromeEvent{Cat: e.Kind.String(), Ph: "X", Ts: e.Start, Dur: &dur, Tid: e.Rank}
		switch e.Kind {
		case EventSend:
			ce.Name = fmt.Sprintf("send→%d", e.Peer)
			ce.Args = map[string]any{"words": e.Words, "peer": e.Peer, "tag": e.Tag, "phase": e.Phase}
		case EventRecv:
			ce.Name = fmt.Sprintf("recv←%d", e.Peer)
			ce.Args = map[string]any{"words": e.Words, "peer": e.Peer, "tag": e.Tag, "phase": e.Phase}
		case EventCompute:
			ce.Name = "compute"
			ce.Args = map[string]any{"flops": e.Words, "phase": e.Phase}
		default:
			continue
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}
