package subscribe

import (
	"testing"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// advance runs msgs and waits until the broker has settled batches
// watermark batches in total, so TryRecv afterwards sees every delivery.
func advance(t *testing.T, e *core.Engine, b *Broker, batches uint64, msgs ...stream.Message) {
	t.Helper()
	if err := e.Run(msgs); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, batches)
}

// TestSubscribeQueryUpdates: a standing query's first receive after a
// stale cursor is its current result, and later watermarks push only
// when the result changes — not for other attributes, but for a new
// entity and for a retraction. Close detaches it.
func TestSubscribeQueryUpdates(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()
	advance(t, e, b, 1, stream.ElementMsg(reading(1, "s1", 20)), stream.WatermarkMsg(10))

	q, err := b.Subscribe(Filter{Query: "SELECT entity, value FROM temperature ORDER BY entity"}, ResumeFrom(temporal.MinInstant))
	if err != nil {
		t.Fatal(err)
	}
	d := recvTimeout(t, q)
	if d.Kind != Resync || d.Result == nil || len(d.Result.Rows) != 1 || d.Result.Rows[0][1].MustFloat() != 20 {
		t.Fatalf("initial delivery %v %v, want the current result", d.Kind, d.Result)
	}

	// Another attribute changes: the result does not, so nothing is pushed.
	if err := e.Store().Replace("s1", "pressure", element.Float(1), 15); err != nil {
		t.Fatal(err)
	}
	advance(t, e, b, 2, stream.WatermarkMsg(20))
	if d, ok := q.TryRecv(); ok {
		t.Fatalf("irrelevant attribute pushed %v", d.Result)
	}

	// A new entity is pushed.
	advance(t, e, b, 3, stream.ElementMsg(reading(21, "s2", 30)), stream.WatermarkMsg(30))
	if d := recvTimeout(t, q); d.Result == nil || len(d.Result.Rows) != 2 {
		t.Fatalf("after a second entity: %v", d.Result)
	}

	// So is a retraction.
	if err := e.Store().Delete("s2", "temperature", state.WithValidTime(35), state.WithTransactionTime(35)); err != nil {
		t.Fatal(err)
	}
	advance(t, e, b, 4, stream.WatermarkMsg(40))
	if d := recvTimeout(t, q); d.Result == nil || len(d.Result.Rows) != 1 {
		t.Fatalf("after a retraction: %v", d.Result)
	}

	// Close detaches: later changes reach no one.
	q.Close()
	advance(t, e, b, 5, stream.ElementMsg(reading(41, "s1", 50)), stream.WatermarkMsg(50))
	if d, ok := q.Recv(); ok {
		t.Fatalf("closed subscription received %v", d.Result)
	}
	if got := b.Metrics().Subscribers; got != 0 {
		t.Fatalf("subscribers = %d after close, want 0", got)
	}
}

var entrySchema = element.NewSchema(
	element.Field{Name: "visitor", Kind: element.KindString},
	element.Field{Name: "room", Kind: element.KindString},
)

func entry(ts int64, visitor, room string) *element.Element {
	return element.New("RoomEntry", temporal.Instant(ts),
		element.NewTuple(entrySchema, element.String(visitor), element.String(room)))
}

// TestSubscribeQueryDrivenByRules closes the Figure 1 loop: input stream →
// state management rule → state change → pushed query result, with no
// polling anywhere. The pushed result equals a direct query.
func TestSubscribeQueryDrivenByRules(t *testing.T) {
	e := core.New(core.WithPolicy(core.StateFirst))
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	b := NewBroker(e)
	defer b.Close()
	const dashboard = "SELECT value, count(*) FROM position GROUP BY value ORDER BY value"
	q, err := b.Subscribe(Filter{Query: dashboard})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, e, b, 1,
		stream.ElementMsg(entry(10, "ann", "hall")),
		stream.ElementMsg(entry(20, "bob", "hall")),
		stream.ElementMsg(entry(30, "ann", "lab")),
		stream.WatermarkMsg(40))
	d := recvTimeout(t, q)
	// hall: bob; lab: ann.
	if got := d.Result; got == nil || len(got.Rows) != 2 || got.Rows[0][1].MustInt() != 1 || got.Rows[1][1].MustInt() != 1 {
		t.Fatalf("dashboard: %v", got)
	}
	direct, err := e.Query(dashboard)
	if err != nil {
		t.Fatal(err)
	}
	if d.Result.String() != direct.String() {
		t.Fatalf("pushed %v, direct query %v", d.Result, direct)
	}
}

// TestSubscribeQueryAggregates: a GROUP BY standing query. Moving one
// sensor shifts a count between groups, and the last pushed result
// equals a direct query.
func TestSubscribeQueryAggregates(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()
	const dashboard = "SELECT value, count(*) FROM temperature GROUP BY value ORDER BY value"
	q, err := b.Subscribe(Filter{Query: dashboard})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, e, b, 1,
		stream.ElementMsg(reading(1, "s1", 20)),
		stream.ElementMsg(reading(2, "s2", 20)),
		stream.ElementMsg(reading(3, "s3", 30)),
		stream.WatermarkMsg(10))
	d := recvTimeout(t, q)
	if got := d.Result; got == nil || len(got.Rows) != 2 || got.Rows[0][1].MustInt() != 2 || got.Rows[1][1].MustInt() != 1 {
		t.Fatalf("dashboard: %v", got)
	}

	advance(t, e, b, 2, stream.ElementMsg(reading(11, "s2", 30)), stream.WatermarkMsg(20))
	d = recvTimeout(t, q)
	if got := d.Result; got == nil || got.Rows[0][1].MustInt() != 1 || got.Rows[1][1].MustInt() != 2 {
		t.Fatalf("after a move: %v", got)
	}
	direct, err := e.Query(dashboard)
	if err != nil {
		t.Fatal(err)
	}
	if d.Result.String() != direct.String() {
		t.Fatalf("pushed %v, direct query %v", d.Result, direct)
	}
}

// TestSubscribeQueryUndrained: a standing query nobody receives from
// still tracks the state. Its queue overflows into one resync, which
// carries the result at the latest watermark.
func TestSubscribeQueryUndrained(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()
	q, err := b.Subscribe(Filter{Query: "SELECT entity, value FROM temperature"}, WithQueueLen(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		advance(t, e, b, uint64(i),
			stream.ElementMsg(reading(int64(i*10-9), "s1", float64(i))),
			stream.WatermarkMsg(temporal.Instant(i*10)))
	}
	if d := recvTimeout(t, q); d.Kind != Deltas || d.Watermark != 10 {
		t.Fatalf("queued delivery %v at %d, want deltas at 10", d.Kind, d.Watermark)
	}
	d := recvTimeout(t, q)
	if d.Kind != Resync || d.Result == nil || len(d.Result.Rows) != 1 || d.Result.Rows[0][1].MustFloat() != 3 {
		t.Fatalf("catch-up %v %v, want the result at watermark 30", d.Kind, d.Result)
	}
}

// TestSubscribeQueryRejections: a standing query that cannot run fails
// its Subscribe — parse errors, evaluation errors on the current cut, and
// WITH INFERENCE (the broker has no reasoner).
func TestSubscribeQueryRejections(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()
	for _, src := range []string{
		"garbage",
		"SELECT entity FROM temperature WHERE nosuch(1,2)",
		"SELECT entity FROM temperature WITH INFERENCE",
	} {
		if _, err := b.Subscribe(Filter{Query: src}); err == nil {
			t.Errorf("Subscribe(%q) succeeded", src)
		}
	}
	if got := b.Metrics().Subscribers; got != 0 {
		t.Fatalf("rejected queries left %d subscribers", got)
	}
}
