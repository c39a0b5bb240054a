// Package store is the durable artifact layer behind the service's async
// jobs: large job outputs (Chrome traces, sweep CSVs, plan NDJSON) are
// written once as named, content-addressed artifacts and stay fetchable
// after the job-retention policy has evicted the job's in-memory metadata.
//
// The package splits in two:
//
//   - FS is the blob backend — a flat key → bytes namespace in a
//     directory, with atomic writes, random-access reads, and prefix
//     listing.
//
//   - Artifacts is the content-addressed catalog on top: blobs are stored
//     once under their SHA-256 (identical outputs from different jobs
//     share bytes), and a small JSON manifest per (job, name) records the
//     hash, size, and content type. Deleting job metadata never touches
//     the catalog — that is the retention-vs-durability contract.
package store

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotExist is returned (possibly wrapped) when a key or artifact does
// not exist.
var ErrNotExist = errors.New("store: object does not exist")

// ErrTooLarge is returned (possibly wrapped) when an artifact write
// exceeds the configured size cap.
var ErrTooLarge = errors.New("store: artifact exceeds the size cap")

// ErrBadKey is returned (possibly wrapped) for malformed keys, artifact
// names, or job ids.
var ErrBadKey = errors.New("store: malformed key")

// maxKeyLen bounds a full key; generous next to the fixed-shape keys the
// catalog builds (a 64-hex-digit hash plus short prefixes).
const maxKeyLen = 512

// ValidateKey checks that key is a slash-separated path of segments each
// matching [A-Za-z0-9._-]+ with no "." or ".." segments — the grammar that
// is simultaneously a safe relative filesystem path and a safe object-store
// key. FS applies it to every key, so path traversal is refused before any
// file is touched.
func ValidateKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: key %q is empty or over %d bytes: %w", key, maxKeyLen, ErrBadKey)
	}
	for _, seg := range strings.Split(key, "/") {
		if err := validateSegment(seg); err != nil {
			return fmt.Errorf("store: key %q: %w", key, err)
		}
	}
	return nil
}

// validateSegment enforces the single-segment grammar shared by key
// segments, artifact names, and job ids.
func validateSegment(seg string) error {
	if seg == "" || seg == "." || seg == ".." {
		return fmt.Errorf("segment %q: %w", seg, ErrBadKey)
	}
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("segment %q has byte %q: %w", seg, c, ErrBadKey)
		}
	}
	return nil
}

// ValidateName checks a single path segment (an artifact name or job id).
func ValidateName(name string) error {
	if len(name) > 255 {
		return fmt.Errorf("store: name %q over 255 bytes: %w", name, ErrBadKey)
	}
	if err := validateSegment(name); err != nil {
		return fmt.Errorf("store: name %q: %w", name, err)
	}
	return nil
}
