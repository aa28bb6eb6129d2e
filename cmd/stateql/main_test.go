package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/element"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	return <-done, runErr
}

func TestRunQueriesDurableDir(t *testing.T) {
	dir := t.TempDir()
	e := core.New(core.WithDurableDir(dir))
	if err := e.Store().Replace("ann", "position", element.String("hall"), 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Store().Replace("ann", "position", element.String("lab"), 20); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := captureStdout(t, func() error {
		return run(dir, false, []string{"SELECT entity, value FROM position"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 keys, 2 versions, 1 current") {
		t.Fatalf("missing open summary:\n%s", out)
	}
	if !strings.Contains(out, "ann") || !strings.Contains(out, "lab") || strings.Contains(out, "hall") {
		t.Fatalf("SELECT did not answer the current position:\n%s", out)
	}
}

func TestRunRejectsMissingDir(t *testing.T) {
	if err := run("", false, []string{"SELECT * FROM *"}); err == nil {
		t.Fatal("empty -dir accepted")
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if err := run(missing, false, []string{"SELECT * FROM *"}); err == nil {
		t.Fatal("missing directory accepted")
	}
	if _, err := os.Stat(missing); err == nil {
		t.Fatal("reading a missing directory created it")
	}
}
