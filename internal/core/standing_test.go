package core

import (
	"testing"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/stream"
)

// TestStandingQueryDrivenByRules closes the Figure 1 loop: input stream →
// state management rule → state change → standing query update, with no
// polling anywhere.
func TestStandingQueryDrivenByRules(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	var updates []*query.Result
	sq, err := e.RegisterStateQuery("dashboard",
		"SELECT value, count(*) FROM position GROUP BY value ORDER BY value",
		func(r *query.Result) { updates = append(updates, r) })
	if err != nil {
		t.Fatal(err)
	}
	els := []*element.Element{
		entry(10, "ann", "hall"),
		entry(20, "bob", "hall"),
		entry(30, "ann", "lab"),
	}
	if err := e.Run(stream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("standing query never fired")
	}
	final := sq.Result()
	// hall: bob; lab: ann.
	if len(final.Rows) != 2 || final.Rows[0][1].MustInt() != 1 || final.Rows[1][1].MustInt() != 1 {
		t.Fatalf("final dashboard: %v", final.Rows)
	}
	// The last pushed update equals the final result.
	last := updates[len(updates)-1]
	if last.String() != final.String() {
		t.Error("pushed result should match Result()")
	}
}

func TestStandingQueryNilCallback(t *testing.T) {
	e := New(StateFirst)
	sq, err := e.RegisterStateQuery("q", "SELECT entity FROM position", nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Store().Replace("ann", "position", element.String("hall"), 0)
	if got := sq.Result(); len(got.Rows) != 1 {
		t.Fatalf("result: %v", got.Rows)
	}
	if sq.Updates() != 1 {
		t.Errorf("updates: %d", sq.Updates())
	}
}

func TestStandingQueryErrorsSurface(t *testing.T) {
	e := New(StateFirst)
	if _, err := e.RegisterStateQuery("bad", "SELECT entity FROM *", nil); err == nil {
		t.Error("FROM * should be rejected for standing queries")
	}
}
