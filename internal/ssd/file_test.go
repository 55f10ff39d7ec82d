package ssd

import (
	"os"
	"testing"
)

func TestFileBacking(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "ssd-*.bin")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFileBacking(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("hello world"), 5); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 16 {
		t.Fatalf("size = %d, want 16", b.Size())
	}
	buf := make([]byte, 5)
	if _, err := b.ReadAt(buf, 11); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("read %q", buf)
	}
	// A device over a file backing works end to end.
	dev := New(fastProfile(2), b)
	if _, err := dev.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("device read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileBacking(f); err == nil {
		t.Fatal("stat on closed file should error")
	}
}
