package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS is the blob store: each key maps to a file under the root directory,
// with the key's slash-separated segments as path components (see
// ValidateKey). Put is atomic (temp file + rename in the destination
// directory), so a crash or a concurrent Open never observes a partial
// object.
type FS struct {
	root string
}

// NewFS opens (creating if needed) a filesystem store rooted at dir.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: resolve root %q: %w", dir, err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root %q: %w", abs, err)
	}
	return &FS{root: abs}, nil
}

// path maps a validated key to its file path.
func (s *FS) path(key string) (string, error) {
	if err := ValidateKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put writes r under key, replacing any existing object, and returns the
// byte count written. The object is staged in a temp file in the final
// directory and renamed into place, which is atomic on POSIX filesystems.
func (s *FS) Put(key string, r io.Reader) (int64, error) {
	p, err := s.path(key)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return 0, fmt.Errorf("store: put %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return 0, fmt.Errorf("store: put %q: %w", key, err)
	}
	n, err := io.Copy(tmp, r)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: put %q: %w", key, err)
	}
	return n, nil
}

// Open returns the object's file, which the caller closes, and its size; a
// missing key wraps ErrNotExist.
func (s *FS) Open(key string) (*os.File, int64, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("store: open %q: %w", key, ErrNotExist)
		}
		return nil, 0, fmt.Errorf("store: open %q: %w", key, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: open %q: %w", key, err)
	}
	return f, fi.Size(), nil
}

// Stat returns the object's size; a missing key wraps ErrNotExist.
func (s *FS) Stat(key string) (int64, error) {
	p, err := s.path(key)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("store: stat %q: %w", key, ErrNotExist)
		}
		return 0, fmt.Errorf("store: stat %q: %w", key, err)
	}
	if fi.IsDir() {
		return 0, fmt.Errorf("store: stat %q: %w", key, ErrNotExist)
	}
	return fi.Size(), nil
}

// List returns every key with the given prefix, sorted. The prefix is
// matched against whole keys, so
// "manifests/j1" matches "manifests/j1/a" but not "manifests/j10/a" —
// prefix boundaries fall on path segments unless the prefix itself ends
// mid-segment, in which case it must name an existing directory prefix.
func (s *FS) List(prefix string) ([]string, error) {
	// Walk the deepest directory the prefix pins down, then filter by the
	// exact string prefix on the reconstructed keys.
	dir := s.root
	if prefix != "" {
		// Only the directory part of the prefix narrows the walk; a
		// trailing partial segment is handled by the string filter.
		if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
			sub := prefix[:i]
			if err := ValidateKey(sub); err != nil {
				return nil, err
			}
			dir = filepath.Join(s.root, filepath.FromSlash(sub))
		}
	}
	var keys []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return filepath.SkipAll
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".put-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list %q: %w", prefix, err)
	}
	sort.Strings(keys)
	return keys, nil
}
