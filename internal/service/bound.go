package service

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/hbl"
)

// POST /v1/bound: memory-independent communication lower bounds for
// arbitrary array programs (the HBL generalization of /v1/lowerbound,
// which remains the matmul fast path). The primary request shape is the
// unified v1 envelope {"problems": [...]}, answered by an
// Envelope[BoundResponse] with per-index partial success; a single inline
// problem is also accepted and answered bare, failures as taxonomy-coded
// non-2xx. Programs are given either as DSL text
// ("A[i,k]*B[k,j] -> C[i,j] | i=100 k=100 j=100") or structurally; invalid
// programs answer kind "bad_program".

// ArrayRefJSON is one array reference of a structurally-given program.
type ArrayRefJSON struct {
	// Name identifies the array.
	Name string `json:"name"`
	// Indices is the subscript subset, e.g. ["i", "k"].
	Indices []string `json:"indices"`
}

// BoundProblem is one array-program instance. Exactly one of Program (the
// DSL text) or Arrays (the structured form) must be given. Without extents
// the answer is exponents-only; with extents and P ≥ 1 it carries the full
// memory-independent bound.
type BoundProblem struct {
	// Program is the DSL text: "A[i,k]*B[k,j] -> C[i,j]" or
	// "C[i,j] += A[i,k]*B[k,j]", optionally "... | i=9600 k=600 j=2400".
	Program string `json:"program,omitempty"`
	// Indices declares the loop indices of a structured program, in loop
	// order. Optional — indices are collected from the arrays in first-
	// appearance order when omitted.
	Indices []string `json:"indices,omitempty"`
	// Arrays holds the structured program's references.
	Arrays []ArrayRefJSON `json:"arrays,omitempty"`
	// Output names the output array; empty means the last one.
	Output string `json:"output,omitempty"`
	// Extents maps index names to iteration counts. It must cover every
	// index and overrides any extents clause in the DSL text.
	Extents map[string]int `json:"extents,omitempty"`
	// P is the processor count; required (≥ 1) when extents are given.
	P int `json:"p,omitempty"`
}

// BoundRequest is the body of POST /v1/bound: either the unified v1
// envelope {"problems": [...]} (answered with an Envelope and per-index
// partial success) or a single inline problem (answered with a bare
// BoundResponse, failures as taxonomy-coded non-2xx).
type BoundRequest struct {
	BoundProblem
	// Problems is the unified v1 envelope form.
	Problems []BoundProblem `json:"problems"`
}

// BoundArrayJSON reports one array's share of the bound.
type BoundArrayJSON struct {
	// Name identifies the array.
	Name string `json:"name"`
	// S is the array's optimal HBL exponent, with SExact the exact rational
	// ("1/2").
	S      float64 `json:"s"`
	SExact string  `json:"sExact"`
	// AccessBound is the Lemma 1 access bound Π_{i∈φ_j} n_i / P in words,
	// and Footprint the array's share x*_j of the optimal footprint; both
	// present only when the request carried extents.
	AccessBound float64 `json:"accessBound,omitempty"`
	Footprint   float64 `json:"footprint,omitempty"`
}

// BoundResponse answers one array-program bound.
type BoundResponse struct {
	// Program is the canonical rendering of the program (reparseable; also
	// the memoization key).
	Program string `json:"program"`
	// Sigma is σ_HBL = Σ_j s_j, with SigmaExact the exact rational ("3/2").
	Sigma      float64 `json:"sigma"`
	SigmaExact string  `json:"sigmaExact"`
	// Exponent is 1/σ — footprint ≥ (volume/P)^exponent; ExponentExact is
	// the exact rational ("2/3").
	Exponent      float64 `json:"exponent"`
	ExponentExact string  `json:"exponentExact"`
	// Arrays reports the per-array exponents and, with extents, the
	// per-array access bounds and optimal footprints.
	Arrays []BoundArrayJSON `json:"arrays"`
	// The remaining fields are present only when the request carried
	// extents and a processor count.
	//
	// P echoes the processor count.
	P int `json:"p,omitempty"`
	// Volume is the iteration-space size Π n_i.
	Volume float64 `json:"volume,omitempty"`
	// TotalWords is the one-copy footprint of all arrays.
	TotalWords float64 `json:"totalWords,omitempty"`
	// FreeArrays counts arrays governed by the water level — the
	// generalization of Theorem 3's case number (matmul: 1, 2, 3).
	FreeArrays int `json:"freeArrays,omitempty"`
	// Footprint is the minimum per-processor data footprint Σ_j x*_j.
	Footprint float64 `json:"footprint,omitempty"`
	// Bound is the memory-independent lower bound Footprint − TotalWords/P
	// in words per processor.
	Bound float64 `json:"bound,omitempty"`
}

// toProgram resolves the two accepted program shapes into a validated
// hbl.Program.
func (bp BoundProblem) toProgram() (hbl.Program, error) {
	var p hbl.Program
	switch {
	case bp.Program != "" && len(bp.Arrays) > 0:
		return p, fmt.Errorf(`service: give "program" text or "arrays", not both: %w`, core.ErrBadProgram)
	case bp.Program != "":
		var err error
		if p, err = hbl.ParseProgram(bp.Program); err != nil {
			return p, err
		}
	case len(bp.Arrays) > 0:
		p.Indices = bp.Indices
		p.Output = bp.Output
		seen := make(map[string]bool, len(p.Indices))
		for _, name := range p.Indices {
			seen[name] = true
		}
		for _, a := range bp.Arrays {
			p.Arrays = append(p.Arrays, hbl.Array{Name: a.Name, Indices: a.Indices})
			if len(bp.Indices) == 0 {
				for _, name := range a.Indices {
					if !seen[name] {
						seen[name] = true
						p.Indices = append(p.Indices, name)
					}
				}
			}
		}
	default:
		return p, fmt.Errorf(`service: a bound problem needs "program" text or "arrays": %w`, core.ErrBadProgram)
	}
	if len(bp.Extents) > 0 {
		p.Extents = nil // the request's map overrides any DSL extents clause
		var err error
		if p, err = p.WithExtents(bp.Extents); err != nil {
			return p, err
		}
	}
	return p, p.Validate()
}

// boundOne answers one program from the memo layer.
func (s *Server) boundOne(bp BoundProblem) (BoundResponse, error) {
	prog, err := bp.toProgram()
	if err != nil {
		return BoundResponse{}, err
	}
	if len(prog.Extents) == 0 {
		if bp.P != 0 {
			return BoundResponse{}, fmt.Errorf("service: P=%d given without extents — a bound needs both: %w", bp.P, core.ErrBadProgram)
		}
		return s.exponentsFor(prog)
	}
	if bp.P < 1 {
		return BoundResponse{}, fmt.Errorf("service: P must be ≥ 1 when extents are given, got %d: %w", bp.P, core.ErrBadProcessorCount)
	}
	return s.boundFor(prog, bp.P)
}

// exponentResult and boundResult cache outcomes, deterministic errors
// included.
type boundResult struct {
	resp BoundResponse
	err  error
}

// exponentsFor is hbl.Solve through the cache, keyed by the canonical
// program rendering.
func (s *Server) exponentsFor(prog hbl.Program) (BoundResponse, error) {
	key := "hb:" + prog.String()
	r := s.cache.GetOrCompute(key, func() any {
		e, err := hbl.Solve(prog)
		if err != nil {
			return boundResult{err: err}
		}
		return boundResult{resp: exponentsResponse(prog, e)}
	}).(boundResult)
	return r.resp, r.err
}

// boundFor is hbl.MemIndependentBound through the cache. The canonical
// program string embeds the extents, so key + P pins the full input tuple.
func (s *Server) boundFor(prog hbl.Program, p int) (BoundResponse, error) {
	key := fmt.Sprintf("hb:%s:%d", prog, p)
	r := s.cache.GetOrCompute(key, func() any {
		b, err := hbl.MemIndependentBound(prog, p)
		if err != nil {
			return boundResult{err: err}
		}
		resp := exponentsResponse(prog, b.Exponents)
		resp.P = p
		resp.Volume = b.Volume
		resp.TotalWords = b.TotalWords
		resp.FreeArrays = b.FreeArrays
		resp.Footprint = b.Footprint
		resp.Bound = b.LowerBound
		for j := range resp.Arrays {
			resp.Arrays[j].AccessBound = b.AccessBounds[j]
			resp.Arrays[j].Footprint = b.X[j]
		}
		return boundResult{resp: resp}
	}).(boundResult)
	return r.resp, r.err
}

// exponentsResponse builds the exponents-only part of a response.
func exponentsResponse(prog hbl.Program, e hbl.Exponents) BoundResponse {
	resp := BoundResponse{
		Program:       prog.String(),
		Sigma:         e.SigmaFloat(),
		SigmaExact:    e.Sigma.RatString(),
		ExponentExact: e.BoundExponent().RatString(),
		Arrays:        make([]BoundArrayJSON, len(prog.Arrays)),
	}
	resp.Exponent = 1 / resp.Sigma
	sf := e.SFloat()
	for j, a := range prog.Arrays {
		resp.Arrays[j] = BoundArrayJSON{Name: a.Name, S: sf[j], SExact: e.S[j].RatString()}
	}
	return resp
}

func (s *Server) handleBound(w http.ResponseWriter, r *http.Request) {
	var req BoundRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	problems, f := formOf(req.Problems, nil, req.BoundProblem)
	if !s.checkBatch(w, len(problems)) {
		return
	}
	reply(w, http.StatusOK, f, envelopeOf(problems, s.boundOne))
}
