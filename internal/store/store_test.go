package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatalf("NewFS: %v", err)
	}
	return s
}

func TestFSPutOpenRoundTrip(t *testing.T) {
	s := newFS(t)
	body := []byte("hello, artifacts")
	n, err := s.Put("a/b/c.txt", bytes.NewReader(body))
	if err != nil || n != int64(len(body)) {
		t.Fatalf("Put = %d, %v", n, err)
	}
	obj, size, err := s.Open("a/b/c.txt")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer obj.Close()
	if size != int64(len(body)) {
		t.Fatalf("size = %d, want %d", size, len(body))
	}
	got, err := io.ReadAll(obj)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Seek works — required for HTTP Range serving.
	if _, err := obj.Seek(7, io.SeekStart); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	tail, _ := io.ReadAll(obj)
	if string(tail) != "artifacts" {
		t.Fatalf("after seek read %q", tail)
	}
	if sz, err := s.Stat("a/b/c.txt"); err != nil || sz != int64(len(body)) {
		t.Fatalf("Stat = %d, %v", sz, err)
	}
}

func TestFSPutReplaces(t *testing.T) {
	s := newFS(t)
	s.Put("k", strings.NewReader("old old old"))
	if _, err := s.Put("k", strings.NewReader("new")); err != nil {
		t.Fatalf("replace Put: %v", err)
	}
	obj, size, err := s.Open("k")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer obj.Close()
	got, _ := io.ReadAll(obj)
	if string(got) != "new" || size != 3 {
		t.Fatalf("after replace: %q size %d", got, size)
	}
}

func TestFSMissingWrapsErrNotExist(t *testing.T) {
	s := newFS(t)
	if _, _, err := s.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing = %v, want ErrNotExist", err)
	}
	if _, err := s.Stat("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat missing = %v, want ErrNotExist", err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Fatalf("Delete missing must be a no-op, got %v", err)
	}
}

func TestFSDelete(t *testing.T) {
	s := newFS(t)
	s.Put("gone", strings.NewReader("x"))
	if err := s.Delete("gone"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Stat("gone"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat after delete = %v", err)
	}
}

func TestFSListSortedAndPrefixBounded(t *testing.T) {
	s := newFS(t)
	for _, k := range []string{"m/j1/b", "m/j1/a", "m/j10/z", "m/j2/c", "other/x"} {
		if _, err := s.Put(k, strings.NewReader(k)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	keys, err := s.List("m/j1/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := []string{"m/j1/a", "m/j1/b"}
	if len(keys) != len(want) {
		t.Fatalf("List = %v, want %v (j10 must not leak into the j1 prefix)", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("List = %v, want %v", keys, want)
		}
	}
	// Listing a prefix with no objects is empty, not an error.
	if keys, err := s.List("m/j99/"); err != nil || len(keys) != 0 {
		t.Fatalf("empty prefix List = %v, %v", keys, err)
	}
}

func TestKeyValidationRejectsTraversal(t *testing.T) {
	s := newFS(t)
	for _, bad := range []string{
		"", "..", "a/../b", "/abs", "a//b", "a/./b", "a\\b", "a b", "a\x00b",
		strings.Repeat("k", 600),
	} {
		if _, err := s.Put(bad, strings.NewReader("x")); !errors.Is(err, ErrBadKey) {
			t.Errorf("Put(%q) = %v, want ErrBadKey", bad, err)
		}
		if _, _, err := s.Open(bad); !errors.Is(err, ErrBadKey) {
			t.Errorf("Open(%q) = %v, want ErrBadKey", bad, err)
		}
	}
	// Names additionally refuse slashes.
	for _, bad := range []string{"a/b", "..", ".", ""} {
		if err := ValidateName(bad); !errors.Is(err, ErrBadKey) {
			t.Errorf("ValidateName(%q) = %v, want ErrBadKey", bad, err)
		}
	}
	if err := ValidateName("trace-3.json"); err != nil {
		t.Errorf("ValidateName(trace-3.json) = %v", err)
	}
}

func TestFSConcurrentPutOpen(t *testing.T) {
	// Hammer one key with writers and readers; atomic rename means every
	// read observes a complete value. Every value is exactly 4 bytes
	// ("v" + writer digit + two-digit index), so any other length is a
	// partial write. Run with -race.
	s := newFS(t)
	s.Put("k", strings.NewReader("v000"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Put("k", strings.NewReader(fmt.Sprintf("v%d%02d", w, i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				obj, size, err := s.Open("k")
				if err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				got, err := io.ReadAll(obj)
				obj.Close()
				if err != nil || int64(len(got)) != size || len(got) != 4 {
					t.Errorf("read %q (size %d): %v — partial write visible", got, size, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestArtifactsWriteListOpen(t *testing.T) {
	a := NewArtifacts(newFS(t), 0)
	body := []byte(`{"trace":[1,2,3]}`)
	info, err := a.Write("j1", "trace.json", "application/json", func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	wantSum := sha256.Sum256(body)
	if info.SHA256 != hex.EncodeToString(wantSum[:]) {
		t.Fatalf("sha256 = %s, want %x", info.SHA256, wantSum)
	}
	if info.Size != int64(len(body)) || info.Name != "trace.json" || info.ContentType != "application/json" {
		t.Fatalf("info = %+v", info)
	}
	infos, err := a.List("j1")
	if err != nil || len(infos) != 1 || infos[0].SHA256 != info.SHA256 {
		t.Fatalf("List = %+v, %v", infos, err)
	}
	got, obj, err := a.Open("j1", "trace.json")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer obj.Close()
	if got.SHA256 != info.SHA256 {
		t.Fatalf("Open info = %+v", got)
	}
	read, _ := io.ReadAll(obj)
	if !bytes.Equal(read, body) {
		t.Fatalf("content = %q", read)
	}
}

func TestArtifactsListSortedMultiple(t *testing.T) {
	a := NewArtifacts(newFS(t), 0)
	for _, name := range []string{"z.csv", "a.json", "m.ndjson"} {
		if _, err := a.Write("j1", name, "text/plain", func(w io.Writer) error {
			_, err := io.WriteString(w, name)
			return err
		}); err != nil {
			t.Fatalf("Write %s: %v", name, err)
		}
	}
	infos, err := a.List("j1")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var names []string
	for _, in := range infos {
		names = append(names, in.Name)
	}
	if strings.Join(names, ",") != "a.json,m.ndjson,z.csv" {
		t.Fatalf("names = %v, want sorted", names)
	}
	// Unknown job: empty, not an error.
	if infos, err := a.List("j404"); err != nil || len(infos) != 0 {
		t.Fatalf("unknown job List = %v, %v", infos, err)
	}
}

func TestArtifactsDedupeSharesBlob(t *testing.T) {
	fs := newFS(t)
	a := NewArtifacts(fs, 0)
	write := func(job string) Info {
		info, err := a.Write(job, "out.csv", "text/csv", func(w io.Writer) error {
			_, err := io.WriteString(w, "p,phi\n64,1\n")
			return err
		})
		if err != nil {
			t.Fatalf("Write %s: %v", job, err)
		}
		return info
	}
	i1, i2 := write("j1"), write("j2")
	if i1.SHA256 != i2.SHA256 {
		t.Fatalf("identical content hashed differently: %s vs %s", i1.SHA256, i2.SHA256)
	}
	blobs, err := fs.List("blobs/")
	if err != nil {
		t.Fatalf("List blobs: %v", err)
	}
	if len(blobs) != 1 {
		t.Fatalf("expected 1 shared blob, got %v", blobs)
	}
	// Both jobs still open the shared content independently.
	for _, job := range []string{"j1", "j2"} {
		_, obj, err := a.Open(job, "out.csv")
		if err != nil {
			t.Fatalf("Open %s: %v", job, err)
		}
		obj.Close()
	}
}

func TestArtifactsSizeCap(t *testing.T) {
	a := NewArtifacts(newFS(t), 16)
	_, err := a.Write("j1", "big.bin", "application/octet-stream", func(w io.Writer) error {
		chunk := bytes.Repeat([]byte("x"), 8)
		for i := 0; i < 10; i++ {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Write = %v, want ErrTooLarge", err)
	}
	// The failed write must not leave a manifest behind.
	if infos, _ := a.List("j1"); len(infos) != 0 {
		t.Fatalf("failed write left artifacts: %+v", infos)
	}
	// At the cap exactly is fine.
	if _, err := a.Write("j1", "ok.bin", "application/octet-stream", func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte("y"), 16))
		return err
	}); err != nil {
		t.Fatalf("at-cap Write = %v", err)
	}
}

func TestArtifactsCallbackErrorPropagates(t *testing.T) {
	a := NewArtifacts(newFS(t), 0)
	boom := errors.New("producer failed")
	if _, err := a.Write("j1", "x", "text/plain", func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want wrapped producer error", err)
	}
	if infos, _ := a.List("j1"); len(infos) != 0 {
		t.Fatalf("failed write left artifacts: %+v", infos)
	}
}

func TestArtifactsMissingWrapsErrNotExist(t *testing.T) {
	a := NewArtifacts(newFS(t), 0)
	if _, _, err := a.Open("j1", "nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing = %v, want ErrNotExist", err)
	}
}

func TestArtifactsRejectBadNames(t *testing.T) {
	a := NewArtifacts(newFS(t), 0)
	if _, err := a.Write("../j1", "x", "text/plain", nil); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad job id = %v", err)
	}
	if _, err := a.Write("j1", "a/b", "text/plain", nil); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad name = %v", err)
	}
	if _, _, err := a.Open("j1", ".."); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad open name = %v", err)
	}
	if _, err := a.List("a/b"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad list job = %v", err)
	}
}

func TestArtifactsConcurrentWriters(t *testing.T) {
	// Many jobs writing identical and distinct artifacts concurrently;
	// with -race this exercises blob dedupe racing itself.
	a := NewArtifacts(newFS(t), 0)
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			job := fmt.Sprintf("j%d", j)
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("a%d.txt", i%5)
				content := fmt.Sprintf("shared-%d", i%5) // same across jobs → dedupe
				if _, err := a.Write(job, name, "text/plain", func(w io.Writer) error {
					_, err := io.WriteString(w, content)
					return err
				}); err != nil {
					t.Errorf("Write %s/%s: %v", job, name, err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	for j := 0; j < 8; j++ {
		infos, err := a.List(fmt.Sprintf("j%d", j))
		if err != nil || len(infos) != 5 {
			t.Fatalf("job j%d List = %d infos, %v", j, len(infos), err)
		}
	}
}

func TestFSListSkipsTempFiles(t *testing.T) {
	s := newFS(t)
	s.Put("real", strings.NewReader("x"))
	// Simulate a crashed Put leaving a temp file behind.
	if err := os.WriteFile(filepath.Join(s.Root(), ".put-crash123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List("")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(keys) != 1 || keys[0] != "real" {
		t.Fatalf("List = %v, temp file leaked", keys)
	}
}
