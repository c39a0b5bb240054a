package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// DefaultMaxArtifactBytes caps a single artifact when the caller does not
// choose a limit: 64 MiB holds the largest Chrome trace the simulator
// emits at datacenter scale with an order of magnitude to spare.
const DefaultMaxArtifactBytes = 64 << 20

// Info describes one artifact in a job's catalog. It is the manifest's
// JSON shape and doubles as the API listing entry.
type Info struct {
	// Name is the artifact's name within its job, a single path segment.
	Name string `json:"name"`
	// Size is the exact byte length of the content.
	Size int64 `json:"size"`
	// SHA256 is the lowercase hex digest of the content; it is both the
	// integrity hash surfaced to clients and the blob's storage address.
	SHA256 string `json:"sha256"`
	// ContentType is the MIME type to serve the artifact with.
	ContentType string `json:"content_type"`
	// Created is when the artifact was written.
	Created time.Time `json:"created"`
}

// Artifacts is the content-addressed catalog over an FS. Content lives
// once under blobs/sha256/<aa>/<hash> (identical outputs share bytes);
// each (job, name) pair gets a small JSON manifest under
// manifests/<job>/<name> pointing at its blob. The catalog never deletes
// on job eviction — artifact durability past retention is the point.
type Artifacts struct {
	store    *FS
	maxBytes int64
}

// NewArtifacts wraps an FS. maxBytes caps a single artifact's size;
// zero or negative selects DefaultMaxArtifactBytes.
func NewArtifacts(s *FS, maxBytes int64) *Artifacts {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxArtifactBytes
	}
	return &Artifacts{store: s, maxBytes: maxBytes}
}

func blobKey(sum string) string {
	return "blobs/sha256/" + sum[:2] + "/" + sum
}

func manifestKey(job, name string) string {
	return "manifests/" + job + "/" + name
}

// capWriter counts bytes through to w and fails the write once the cap is
// crossed, so a runaway producer stops early instead of spooling the
// whole oversized artifact.
type capWriter struct {
	w     io.Writer
	n     int64
	limit int64
}

func (cw *capWriter) Write(p []byte) (int, error) {
	if cw.n+int64(len(p)) > cw.limit {
		return 0, fmt.Errorf("%w (limit %d bytes)", ErrTooLarge, cw.limit)
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Write creates (or replaces) the artifact (job, name). The content is
// produced by the write callback, spooled through a SHA-256 hash with the
// size cap enforced as bytes arrive, stored as a deduplicated blob, and
// recorded in the job's manifest. Returns the resulting Info.
//
// Spooling in memory is deliberate: the cap bounds the buffer, and it
// lets the blob be addressed by its final hash in a single FS.Put.
func (a *Artifacts) Write(job, name, contentType string, write func(io.Writer) error) (Info, error) {
	if err := ValidateName(job); err != nil {
		return Info{}, fmt.Errorf("store: job id: %w", err)
	}
	if err := ValidateName(name); err != nil {
		return Info{}, fmt.Errorf("store: artifact name: %w", err)
	}
	var buf bytes.Buffer
	h := sha256.New()
	cw := &capWriter{w: io.MultiWriter(&buf, h), limit: a.maxBytes}
	if err := write(cw); err != nil {
		return Info{}, fmt.Errorf("store: artifact %s/%s: %w", job, name, err)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	bk := blobKey(sum)
	// Dedupe: an existing blob with this hash already holds these bytes.
	if _, err := a.store.Stat(bk); err != nil {
		if !errors.Is(err, ErrNotExist) {
			return Info{}, err
		}
		if _, err := a.store.Put(bk, bytes.NewReader(buf.Bytes())); err != nil {
			return Info{}, err
		}
	}
	info := Info{
		Name:        name,
		Size:        int64(buf.Len()),
		SHA256:      sum,
		ContentType: contentType,
		Created:     time.Now().UTC(),
	}
	mj, err := json.Marshal(info)
	if err != nil {
		return Info{}, fmt.Errorf("store: encode manifest %s/%s: %w", job, name, err)
	}
	if _, err := a.store.Put(manifestKey(job, name), bytes.NewReader(mj)); err != nil {
		return Info{}, err
	}
	return info, nil
}

// List returns the job's artifacts sorted by name. A job with no
// artifacts (or one that never existed — the catalog cannot tell) returns
// an empty slice, not an error.
func (a *Artifacts) List(job string) ([]Info, error) {
	if err := ValidateName(job); err != nil {
		return nil, fmt.Errorf("store: job id: %w", err)
	}
	keys, err := a.store.List("manifests/" + job + "/")
	if err != nil {
		return nil, err
	}
	infos := make([]Info, 0, len(keys))
	for _, k := range keys {
		info, err := a.readManifest(k)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// Open returns the artifact's Info and its content's file, which the
// caller closes. A missing artifact wraps ErrNotExist.
func (a *Artifacts) Open(job, name string) (Info, *os.File, error) {
	if err := ValidateName(job); err != nil {
		return Info{}, nil, fmt.Errorf("store: job id: %w", err)
	}
	if err := ValidateName(name); err != nil {
		return Info{}, nil, fmt.Errorf("store: artifact name: %w", err)
	}
	info, err := a.readManifest(manifestKey(job, name))
	if err != nil {
		return Info{}, nil, err
	}
	obj, size, err := a.store.Open(blobKey(info.SHA256))
	if err != nil {
		return Info{}, nil, err
	}
	if size != info.Size {
		obj.Close()
		return Info{}, nil, fmt.Errorf("store: artifact %s/%s: blob size %d != manifest %d", job, name, size, info.Size)
	}
	return info, obj, nil
}

func (a *Artifacts) readManifest(key string) (Info, error) {
	obj, _, err := a.store.Open(key)
	if err != nil {
		return Info{}, err
	}
	defer obj.Close()
	var info Info
	if err := json.NewDecoder(obj).Decode(&info); err != nil {
		return Info{}, fmt.Errorf("store: decode manifest %q: %w", key, err)
	}
	if info.SHA256 == "" || len(info.SHA256) != 64 {
		return Info{}, fmt.Errorf("store: manifest %q has bad hash %q", key, info.SHA256)
	}
	return info, nil
}
