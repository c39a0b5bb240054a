package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/core"
)

// ErrOverloaded is returned when a per-endpoint concurrency limit turns a
// request away; clients should retry with backoff (the service maps it to
// 503, like ErrJobQueueFull).
var ErrOverloaded = errors.New("server overloaded")

// taxonomy is the service's one error mapping: each sentinel with the
// machine-readable kind its answers carry and the HTTP status that kind
// answers with. An error takes the first row it wraps; one that wraps none
// is "internal", 500. Malformed JSON, oversized lists and unknown job ids
// never reach the table: the handlers answer them 400 "bad_request" and
// 404 "not_found" directly.
var taxonomy = []struct {
	err    error
	kind   string
	status int
}{
	{core.ErrBadDims, "bad_dims", http.StatusBadRequest},
	{core.ErrBadProcessorCount, "bad_processor_count", http.StatusBadRequest},
	{core.ErrTooManyRanks, "too_many_ranks", http.StatusBadRequest},
	{core.ErrBadOpts, "bad_opts", http.StatusBadRequest},
	{core.ErrBadTopology, "bad_topology", http.StatusBadRequest},
	{core.ErrBadPlanRange, "bad_plan_range", http.StatusBadRequest},
	{core.ErrBadProgram, "bad_program", http.StatusBadRequest},
	{core.ErrUnsupportedAlg, "unsupported_alg", http.StatusNotFound},
	{core.ErrGridMismatch, "grid_mismatch", http.StatusUnprocessableEntity},
	{ErrJobQueueFull, "queue_full", http.StatusServiceUnavailable},
	{ErrOverloaded, "overloaded", http.StatusServiceUnavailable},
}

// kindFor tags err with the kind of the first taxonomy row it wraps.
func kindFor(err error) string {
	for _, t := range taxonomy {
		if errors.Is(err, t.err) {
			return t.kind
		}
	}
	return "internal"
}

// statusOf is the HTTP status a taxonomy kind answers with.
func statusOf(kind string) int {
	for _, t := range taxonomy {
		if t.kind == kind {
			return t.status
		}
	}
	return http.StatusInternalServerError
}

// envelopeError locates err at index i of a problem list.
func envelopeError(i int, err error) EnvelopeError {
	return EnvelopeError{Index: i, Code: kindFor(err), Message: err.Error()}
}

// writeError answers with the taxonomy-mapped status and an ErrorResponse
// body.
func writeError(w http.ResponseWriter, err error) {
	kind := kindFor(err)
	writeJSON(w, statusOf(kind), ErrorResponse{Error: err.Error(), Kind: kind})
}

// writeBadRequest answers 400 for protocol-level failures (malformed JSON,
// oversize bodies) that never reach the taxonomy.
func writeBadRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg, Kind: "bad_request"})
}

// writeNotFound answers 404 for missing resources (unknown job ids).
func writeNotFound(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusNotFound, ErrorResponse{Error: msg, Kind: "not_found"})
}

// writeJSON writes v as the JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}
