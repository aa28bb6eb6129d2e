package main

import (
	"testing"

	"repro/internal/core"
)

// TestRunDurableDir: statestream -dir leaves a directory a fresh engine
// recovers the run's state from.
func TestRunDurableDir(t *testing.T) {
	dir := t.TempDir()
	if err := run("security", "state-first", 0.02, "", dir,
		[]string{"SELECT entity, value FROM position HISTORY LIMIT 3"}); err != nil {
		t.Fatal(err)
	}
	e := core.New(core.WithDurableDir(dir))
	st := e.Store().Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Keys == 0 || st.Versions == 0 {
		t.Fatalf("reopened directory holds no state: %+v", st)
	}
}

func TestRunInMemory(t *testing.T) {
	if err := run("ecommerce", "snapshot", 0.01, "", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run("nope", "state-first", 0.01, "", "", nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
