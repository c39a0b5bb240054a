package machine

import (
	"fmt"
	"slices"
	"strings"
)

// EventKind classifies a traced simulator event.
type EventKind int

const (
	// EventSend is a message injection (link occupancy at the sender).
	EventSend EventKind = iota
	// EventRecv is a message delivery, including any wait for the sender.
	EventRecv
	// EventCompute is local computation.
	EventCompute
)

// String names the event kind.
func (k EventKind) String() string {
	return [...]string{"send", "recv", "compute"}[k]
}

// Event is one traced simulator action with simulated start/end times.
type Event struct {
	Rank  int
	Kind  EventKind
	Peer  int // -1 when not applicable
	Tag   int
	Words float64
	Start float64
	End   float64
	Phase string
}

// PhaseSpan is one contiguous stretch of a rank's execution under a single
// SetPhase label — the per-rank, per-phase interval the Chrome-trace export
// renders as one span per algorithm phase (All-Gather A, All-Gather B,
// Reduce-Scatter C for Algorithm 1).
type PhaseSpan struct {
	Rank  int
	Phase string
	Start float64
	End   float64
}

// Trace collects events and phase spans from all ranks of a world, in one
// event log and one phase-span log per rank. A rank appends only to its
// own logs, in program order, so recording takes no lock, and the joined
// logs do not depend on how the scheduler interleaved the ranks.
type Trace struct {
	events [][]Event
	phases [][]PhaseSpan
}

// add appends an event to its rank's log (called from that rank's body).
func (t *Trace) add(e Event) {
	t.events[e.Rank] = append(t.events[e.Rank], e)
}

// addPhase appends a closed phase span to its rank's log (called from that
// rank's body).
func (t *Trace) addPhase(s PhaseSpan) {
	t.phases[s.Rank] = append(t.phases[s.Rank], s)
}

// Ranks returns the size of the world the trace records; a nil trace
// records none.
func (t *Trace) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Phases returns the recorded phase spans in rank order, each rank's in
// the order it closed them, which is also start-time order. A nil trace
// has none.
func (t *Trace) Phases() []PhaseSpan {
	if t == nil {
		return nil
	}
	return slices.Concat(t.phases...)
}

// Events returns the recorded events in rank order, each rank's in program
// order, which is also (start, end) order: a rank's clock never runs
// backwards. A nil trace has none.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return slices.Concat(t.events...)
}

// EnableTracing attaches a Trace to the world; call before Run. Tracing
// records every Send, Recv, and Compute with simulated timestamps, at some
// memory cost per event.
func (w *World) EnableTracing() *Trace {
	w.trace = &Trace{events: make([][]Event, w.p), phases: make([][]PhaseSpan, w.p)}
	return w.trace
}

// Timeline renders an ASCII Gantt chart of the trace: one row per rank,
// time scaled to width columns; '#' marks computation, '>' send occupancy,
// '.' receive waiting, ' ' idle. Overlapping events favor compute > send >
// recv for visibility.
func (t *Trace) Timeline(width int) string {
	if width <= 0 {
		width = 80
	}
	events := t.Events()
	maxEnd := 0.0
	for _, e := range events {
		if e.End > maxEnd {
			maxEnd = e.End
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	glyph := map[EventKind]byte{EventCompute: '#', EventSend: '>', EventRecv: '.'}
	priority := map[EventKind]int{EventCompute: 3, EventSend: 2, EventRecv: 1}
	p := t.Ranks()
	rows := make([][]byte, p)
	prio := make([][]int, p)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
		prio[i] = make([]int, width)
	}
	for _, e := range events {
		lo := int(e.Start / maxEnd * float64(width-1))
		hi := int(e.End / maxEnd * float64(width-1))
		for x := lo; x <= hi && x < width; x++ {
			if priority[e.Kind] > prio[e.Rank][x] {
				rows[e.Rank][x] = glyph[e.Kind]
				prio[e.Rank][x] = priority[e.Kind]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline (0 .. %.4g simulated time units; #=compute >=send .=recv)\n", maxEnd)
	for r := 0; r < p; r++ {
		fmt.Fprintf(&b, "rank %3d |%s|\n", r, rows[r])
	}
	return b.String()
}

// Summary aggregates per-kind totals (simulated time units per rank).
func (t *Trace) Summary() string {
	type agg struct{ compute, send, recv float64 }
	p := t.Ranks()
	per := make([]agg, p)
	for _, e := range t.Events() {
		d := e.End - e.Start
		switch e.Kind {
		case EventCompute:
			per[e.Rank].compute += d
		case EventSend:
			per[e.Rank].send += d
		case EventRecv:
			per[e.Rank].recv += d
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s\n", "rank", "compute", "send", "recv-wait")
	for r := 0; r < p; r++ {
		fmt.Fprintf(&b, "%-8d %12.4g %12.4g %12.4g\n", r, per[r].compute, per[r].send, per[r].recv)
	}
	return b.String()
}
