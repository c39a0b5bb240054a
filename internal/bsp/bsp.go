// Package bsp implements the two alternative machine models the paper's
// related work (§2.3) states memory-independent bounds in, alongside the
// α-β-γ model of internal/machine:
//
//   - BSP (Valiant; Scquizzato and Silvestri 2014 prove the matching
//     asymptotic matmul bounds here): computation proceeds in supersteps;
//     a superstep in which every processor sends and receives at most h
//     words (an h-relation) costs g·h + L, plus the maximum local
//     computation.
//   - LPRAM (Aggarwal, Chandra, Snir 1990): processors share a global
//     memory holding the inputs and, at the end, the output; the
//     communication cost is the words each processor reads from and writes
//     to shared memory. Unlike the distributed model, nothing starts in
//     local memory, so the lower bound is the full Lemma 2 optimum D with
//     no (mn+mk+nk)/P deduction.
//
// The package provides a superstep cost accumulator, FromTrace, which reads
// a traced α-β-γ simulation as a BSP execution, and the LPRAM cost
// analysis. Algorithm 1's schedule is written once, in internal/algs; its
// BSP cost is a reading of that run's trace, and tests show it moves
// exactly the Theorem 3 volume, so the bounds are model-robust.
package bsp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
)

// Machine is a BSP machine: P processors, per-word gap G, per-superstep
// latency L.
type Machine struct {
	P    int
	G, L float64

	steps []*Superstep
}

// New creates a BSP machine.
func New(p int, g, l float64) *Machine {
	if p <= 0 {
		panic(fmt.Sprintf("bsp: machine size %d", p))
	}
	return &Machine{P: p, G: g, L: l}
}

// Superstep accumulates one communication/computation phase.
type Superstep struct {
	p        int
	sent     []float64
	received []float64
	flops    []float64
}

// Step opens a new superstep.
func (m *Machine) Step() *Superstep {
	s := &Superstep{
		p:        m.P,
		sent:     make([]float64, m.P),
		received: make([]float64, m.P),
		flops:    make([]float64, m.P),
	}
	m.steps = append(m.steps, s)
	return s
}

// Send records a message of words from src to dst within the superstep.
func (s *Superstep) Send(src, dst int, words float64) {
	if src < 0 || src >= s.p || dst < 0 || dst >= s.p {
		panic(fmt.Sprintf("bsp: send %d→%d on %d processors", src, dst, s.p))
	}
	if words < 0 {
		panic("bsp: negative message")
	}
	s.sent[src] += words
	s.received[dst] += words
}

// Compute records local computation on proc within the superstep.
func (s *Superstep) Compute(proc int, flops float64) {
	if proc < 0 || proc >= s.p {
		panic(fmt.Sprintf("bsp: compute on proc %d of %d", proc, s.p))
	}
	s.flops[proc] += flops
}

// H returns the superstep's h-relation: the maximum over processors of
// max(words sent, words received).
func (s *Superstep) H() float64 {
	h := 0.0
	for i := 0; i < s.p; i++ {
		if s.sent[i] > h {
			h = s.sent[i]
		}
		if s.received[i] > h {
			h = s.received[i]
		}
	}
	return h
}

// maxFlops returns the superstep's computation term.
func (s *Superstep) maxFlops() float64 {
	f := 0.0
	for _, v := range s.flops {
		if v > f {
			f = v
		}
	}
	return f
}

// Cost summarizes a BSP execution.
type Cost struct {
	// Supersteps is the number of phases (the L multiplier).
	Supersteps int
	// HSum is Σ_s h_s: the bandwidth term the BSP matmul lower bounds
	// constrain (Scquizzato-Silvestri).
	HSum float64
	// Flops is Σ_s (max local computation).
	Flops float64
	// Total is G·HSum + L·Supersteps + Flops.
	Total float64
}

// Cost evaluates the machine's accumulated schedule.
func (m *Machine) Cost() Cost {
	c := Cost{Supersteps: len(m.steps)}
	for _, s := range m.steps {
		c.HSum += s.H()
		c.Flops += s.maxFlops()
	}
	c.Total = m.G*c.HSum + m.L*float64(c.Supersteps) + c.Flops
	return c
}

// ReceivedTotal returns the words processor proc received over the whole
// schedule — comparable with the α-β-γ per-rank volume.
func (m *Machine) ReceivedTotal(proc int) float64 {
	t := 0.0
	for _, s := range m.steps {
		t += s.received[proc]
	}
	return t
}

// MaxReceivedTotal is the per-processor maximum of ReceivedTotal.
func (m *Machine) MaxReceivedTotal() float64 {
	best := 0.0
	for p := 0; p < m.P; p++ {
		if v := m.ReceivedTotal(p); v > best {
			best = v
		}
	}
	return best
}

// LPRAMLowerBound is the memory-independent bound in the LPRAM model: the
// inputs live in shared memory and the output must be written back, so a
// processor's traffic is the full projection sum — the Lemma 2 optimum D —
// with no deduction for initially-owned data.
func LPRAMLowerBound(d core.Dims, p int) float64 { return core.D(d, p) }

// LPRAMAlg1Cost is Algorithm 1's LPRAM traffic on grid g: each processor
// reads its gathered A and B panels from shared memory and writes its C
// contribution — the positive terms of eq. (3). With the §5.2 grid it
// equals LPRAMLowerBound exactly, so the Theorem 3 analysis is tight in
// the LPRAM model too (improving the (1/2)^{2/3} constant of Aggarwal et
// al. 1990 to 3 in the cubic case).
func LPRAMAlg1Cost(d core.Dims, g grid.Grid) float64 { return grid.MemoryCost(d, g) }
