package query

import (
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

func TestContinuousQueryUpdates(t *testing.T) {
	st := state.NewStore()
	st.Replace("ann", "position", element.String("hall"), 0)

	var pushed []*Result
	c, err := RegisterContinuous("positions",
		"SELECT entity, value FROM position ORDER BY entity",
		st, nil, OnUpdate(func(r *Result) { pushed = append(pushed, r) }))
	if err != nil {
		t.Fatal(err)
	}
	// Initial evaluation happened at registration.
	if got := c.Result(); len(got.Rows) != 1 || got.Rows[0][1].MustString() != "hall" {
		t.Fatalf("initial: %v", got.Rows)
	}
	if c.Updates() != 0 {
		t.Errorf("updates before changes: %d", c.Updates())
	}

	// A relevant change re-evaluates and pushes.
	st.Replace("ann", "position", element.String("lab"), 10)
	if c.Updates() == 0 || len(pushed) == 0 {
		t.Fatal("relevant change should trigger an update")
	}
	if got := c.Result(); got.Rows[0][1].MustString() != "lab" {
		t.Fatalf("after change: %v", got.Rows)
	}

	// An irrelevant attribute does not trigger.
	before := c.Updates()
	st.Replace("ann", "badge", element.Int(7), 20)
	if c.Updates() != before {
		t.Error("irrelevant attribute triggered an update")
	}

	// A new entity triggers.
	st.Replace("bob", "position", element.String("hall"), 30)
	if got := c.Result(); len(got.Rows) != 2 {
		t.Fatalf("after second entity: %v", got.Rows)
	}

	// Retraction triggers.
	st.Delete("bob", "position", state.WithValidTime(40), state.WithTransactionTime(40))
	if got := c.Result(); len(got.Rows) != 1 {
		t.Fatalf("after retract: %v", got.Rows)
	}

	// Stop detaches.
	c.Stop()
	stopped := c.Updates()
	st.Replace("ann", "position", element.String("roof"), 50)
	if c.Updates() != stopped {
		t.Error("stopped query still updating")
	}
}

func TestContinuousQueryAggregates(t *testing.T) {
	st := state.NewStore()
	c, err := RegisterContinuous("occupancy",
		"SELECT value, count(*) FROM position GROUP BY value ORDER BY value",
		st, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Replace("ann", "position", element.String("hall"), 0)
	st.Replace("bob", "position", element.String("hall"), 1)
	st.Replace("cat", "position", element.String("lab"), 2)
	got := c.Result()
	if len(got.Rows) != 2 || got.Rows[0][1].MustInt() != 2 || got.Rows[1][1].MustInt() != 1 {
		t.Fatalf("occupancy: %v", got.Rows)
	}
	// Moving bob shifts a count between groups.
	st.Replace("bob", "position", element.String("lab"), 3)
	got = c.Result()
	if got.Rows[0][1].MustInt() != 1 || got.Rows[1][1].MustInt() != 2 {
		t.Fatalf("after move: %v", got.Rows)
	}
}

func TestContinuousQueryRejections(t *testing.T) {
	st := state.NewStore()
	if _, err := RegisterContinuous("x", "SELECT entity FROM *", st, nil); err == nil {
		t.Error("FROM * should be rejected")
	}
	if _, err := RegisterContinuous("x", "SELECT entity FROM a WITH INFERENCE", st, nil); err == nil {
		t.Error("WITH INFERENCE should be rejected")
	}
	if _, err := RegisterContinuous("x", "garbage", st, nil); err == nil {
		t.Error("parse errors should surface")
	}
	if _, err := RegisterContinuous("x", "SELECT entity FROM a WHERE nosuch(1,2)", st, nil); err == nil {
		t.Error("initial evaluation errors should surface")
	}
}

func TestContinuousQueryCustomNow(t *testing.T) {
	st := state.NewStore()
	clock := temporal.Instant(100)
	c, err := RegisterContinuous("asof",
		"SELECT entity FROM position ASOF now()",
		st, func() temporal.Instant { return clock })
	if err != nil {
		t.Fatal(err)
	}
	st.Replace("ann", "position", element.String("hall"), 50)
	if got := c.Result(); len(got.Rows) != 1 {
		t.Fatalf("asof now=100: %v", got.Rows)
	}
	clock = 40 // before the fact: re-evaluations see nothing
	st.Replace("bob", "position", element.String("lab"), 60)
	if got := c.Result(); len(got.Rows) != 0 {
		t.Fatalf("asof now=40: %v", got.Rows)
	}
}
