package service

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/store"
)

// Durable job artifacts. Jobs write large outputs — Chrome traces, batch
// CSVs, plan NDJSON — into the content-addressed artifact store under
// their own job id (read from the job context with JobIDFrom), and
// clients fetch them through
//
//	GET /v1/jobs/{id}/artifacts          — the job's artifact catalog
//	GET /v1/jobs/{id}/artifacts/{name}   — one artifact's content
//
// Content is served with http.ServeContent, so HTTP Range requests
// answer 206 with the exact byte window — a client can pull the tail of
// a long NDJSON sweep without transferring the whole file. Every content
// response carries the artifact's SHA-256 (as a strong ETag and in
// X-Checksum-Sha256), letting clients verify integrity end to end.
//
// Artifacts deliberately outlive job retention: the runner evicts
// finished job metadata on a TTL and cap, while the catalog keeps the
// blobs until deleted out of band. A 404 from GET /v1/jobs/{id} with a
// 200 from its /artifacts listing is therefore a normal state, not a
// consistency bug.

// writeArtifact writes one named artifact for the executing job and
// bumps the artifact counters. It must be called from inside a JobFunc
// (the job id comes from ctx). Artifact failures are returned, not
// swallowed: a job that promised a durable output and cannot deliver it
// is a failed job.
func (s *Server) writeArtifact(ctx context.Context, name, contentType string, write func(io.Writer) error) (store.Info, error) {
	if s.artifacts == nil {
		return store.Info{}, fmt.Errorf("service: artifact store disabled")
	}
	id, ok := JobIDFrom(ctx)
	if !ok {
		return store.Info{}, fmt.Errorf("service: writeArtifact outside a job context")
	}
	info, err := s.artifacts.Write(id, name, contentType, write)
	if err != nil {
		return store.Info{}, err
	}
	s.artifactsWritten.Add(1)
	s.artifactBytes.Add(info.Size)
	return info, nil
}

// writeResultArtifacts persists a finished simulate job's outcome:
// result.json always, plus results.csv when the job carried multiple
// problems (the grep-able form for sweep analysis). No-op without a
// store.
func (s *Server) writeResultArtifacts(ctx context.Context, result any, rows []SimulateResult) error {
	if s.artifacts == nil {
		return nil
	}
	if _, err := s.writeArtifact(ctx, "result.json", "application/json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		return enc.Encode(result)
	}); err != nil {
		return err
	}
	if len(rows) < 2 {
		return nil
	}
	_, err := s.writeArtifact(ctx, "results.csv", "text/csv", func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"n1", "n2", "n3", "p", "alg", "commCost", "bound", "ratioToBound", "totalWords", "criticalPath"}); err != nil {
			return err
		}
		for _, r := range rows {
			rec := []string{
				strconv.Itoa(r.Problem.N1), strconv.Itoa(r.Problem.N2), strconv.Itoa(r.Problem.N3),
				strconv.Itoa(r.Problem.P), r.Alg,
				formatCSVFloat(r.CommCost), formatCSVFloat(r.Bound), formatCSVFloat(r.RatioToBound),
				formatCSVFloat(r.TotalWords), formatCSVFloat(r.CriticalPath),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	})
	return err
}

func formatCSVFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// artifactJSONOf converts a catalog entry to the wire form.
func artifactJSONOf(in store.Info) ArtifactJSON {
	return ArtifactJSON{
		Name:        in.Name,
		Size:        in.Size,
		SHA256:      in.SHA256,
		ContentType: in.ContentType,
		Created:     in.Created,
	}
}

// jobArtifacts lists the job's artifacts for embedding in a JobResponse;
// empty (not an error) when artifacts are disabled or the listing fails —
// job polling must not break because the catalog hiccuped.
func (s *Server) jobArtifacts(id string) []ArtifactJSON {
	if s.artifacts == nil {
		return nil
	}
	infos, err := s.artifacts.List(id)
	if err != nil || len(infos) == 0 {
		return nil
	}
	out := make([]ArtifactJSON, len(infos))
	for i, in := range infos {
		out[i] = artifactJSONOf(in)
	}
	return out
}

// handleArtifactList serves GET /v1/jobs/{id}/artifacts. The listing
// reads the catalog, not the job table, so it keeps answering after the
// job's metadata is evicted — an empty list distinguishes "no artifacts"
// from nothing.
func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	if s.artifacts == nil {
		writeNotFound(w, "artifact storage is disabled on this server")
		return
	}
	id := r.PathValue("id")
	infos, err := s.artifacts.List(id)
	if err != nil {
		if errors.Is(err, store.ErrBadKey) {
			writeBadRequest(w, err.Error())
			return
		}
		writeError(w, err)
		return
	}
	resp := ArtifactListResponse{Job: id, Artifacts: make([]ArtifactJSON, len(infos))}
	for i, in := range infos {
		resp.Artifacts[i] = artifactJSONOf(in)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleArtifactGet serves GET /v1/jobs/{id}/artifacts/{name}, honoring
// Range (via http.ServeContent) and If-None-Match against the
// content-hash ETag.
func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	if s.artifacts == nil {
		writeNotFound(w, "artifact storage is disabled on this server")
		return
	}
	id, name := r.PathValue("id"), r.PathValue("name")
	info, obj, err := s.artifacts.Open(id, name)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotExist):
			writeNotFound(w, fmt.Sprintf("no artifact %s/%s", id, name))
		case errors.Is(err, store.ErrBadKey):
			writeBadRequest(w, err.Error())
		default:
			writeError(w, err)
		}
		return
	}
	defer obj.Close()
	s.artifactFetches.Add(1)
	w.Header().Set("Content-Type", info.ContentType)
	w.Header().Set("ETag", `"sha256-`+info.SHA256+`"`)
	w.Header().Set("X-Checksum-Sha256", info.SHA256)
	// ServeContent handles Range (206 with the byte window), precondition
	// headers, and HEAD, seeking in the blob's file.
	http.ServeContent(w, r, "", info.Created, obj)
}
