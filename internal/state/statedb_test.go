package state_test

import (
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
)

// TestStateDBInterface pins the StateDB contract to its two
// implementations — the in-memory *state.Store and the durable
// *segment.Store — and the Reader contract to the store and its pinned
// snapshot handles.
func TestStateDBInterface(t *testing.T) {
	var (
		_ state.StateDB = (*state.Store)(nil)
		_ state.StateDB = (*segment.Store)(nil)
		_ state.Reader  = (*state.Store)(nil)
		_ state.Reader  = (*state.Snapshot)(nil)
	)
	st := state.NewStore()
	var db state.StateDB = st
	if err := db.Put("e", "a", element.Int(1), state.WithValidTime(5)); err != nil {
		t.Fatal(err)
	}
	pin := st.Snapshot()
	if err := db.Delete("e", "a", state.WithValidTime(9)); err != nil {
		t.Fatal(err)
	}
	var live, pinned state.Reader = st, pin
	if _, ok := live.Find("e", "a"); ok {
		t.Error("delete should close the open version")
	}
	if f, ok := pinned.Find("e", "a"); !ok || f.Value.MustInt() != 1 {
		t.Errorf("snapshot should predate the delete: %v %v", f, ok)
	}
	if h := db.History("e", "a"); len(h) != 1 || h[0].Validity.End != 9 {
		t.Errorf("history after delete: %v", h)
	}
}
