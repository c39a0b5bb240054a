package bsp

import "repro/internal/machine"

// FromTrace reads a traced simulation as a BSP execution with per-word gap
// g and per-superstep latency l. Each rank's events, in program order,
// fall into supersteps: the rank's superstep advances at each send and at
// each change of phase label, so every round of a collective is a
// superstep, and so is the local work between two phases. A send charges
// its words to its sender and its receiver in the sender's superstep, and
// a compute event charges its flops in the rank's current one; receives
// charge nothing further. Supersteps line up across ranks when every rank
// runs the same sequence of phases and rounds, as Algorithm 1's ranks do.
func FromTrace(t *machine.Trace, g, l float64) *Machine {
	m := New(t.Ranks(), g, l)
	rank, step, phase := -1, -1, ""
	for _, e := range t.Events() {
		if e.Rank != rank {
			rank, step, phase = e.Rank, -1, e.Phase
		}
		if step < 0 || e.Kind == machine.EventSend || e.Phase != phase {
			step++
			phase = e.Phase
		}
		for len(m.steps) <= step {
			m.Step()
		}
		switch e.Kind {
		case machine.EventSend:
			m.steps[step].Send(e.Rank, e.Peer, e.Words)
		case machine.EventCompute:
			m.steps[step].Compute(e.Rank, e.Words)
		}
	}
	return m
}
