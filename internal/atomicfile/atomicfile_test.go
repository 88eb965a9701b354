package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteCommitsAndCounts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.json")
	n, err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	})
	if err != nil || n != 5 {
		t.Fatalf("Write = %d, %v; want 5, nil", n, err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello" {
		t.Fatalf("committed %q, %v", b, err)
	}
	assertOnly(t, dir, "corpus.json")
}

// TestWriteFailureKeepsTarget: a failing fill leaves the previous file and
// no temp behind, and its error comes back unwrapped.
func TestWriteFailureKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "iter-001.ckpt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var tmpName string
	_, err := Write(path, func(w io.Writer) error {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.Name() != "iter-001.ckpt" {
				tmpName = e.Name()
			}
		}
		io.WriteString(w, "partial")
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if m, _ := filepath.Match(".iter-001-*", tmpName); !m {
		t.Fatalf("temp file %q, want .iter-001-*", tmpName)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("target = %q after a failed write, want old", b)
	}
	assertOnly(t, dir, "iter-001.ckpt")
}

func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want just %s", names, name)
	}
}
