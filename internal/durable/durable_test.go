package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// An existing target is replaced whole, and no temp file is left behind.
func TestWriteFileReplacesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	if err := os.WriteFile(path, bytes.Repeat([]byte("old "), 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"new": true}`)
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("target holds %q, want %q", got, want)
	}
	assertNoTemp(t, dir)
}

// Writing where no file can be created — under a regular file, which no
// user (root included) can write into — fails and leaves nothing behind.
func TestWriteFileUnwritableDirectory(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "plain")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(notDir, "job.json"), []byte("{}")); err == nil {
		t.Fatal("WriteFile under a regular file succeeded")
	}
	assertNoTemp(t, dir)
}

// A failure after the temp file was written — here the rename, because
// the target is a non-empty directory — still removes the temp file and
// leaves the target untouched.
func TestWriteFileFailedRenameRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "snapshot.json")
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("{}")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	assertNoTemp(t, dir)
	if fi, err := os.Stat(filepath.Join(target, "keep")); err != nil || !fi.IsDir() {
		t.Errorf("target directory disturbed: %v", err)
	}
}

func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}
