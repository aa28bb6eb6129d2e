package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
)

var sensorSchema = element.NewSchema(
	element.Field{Name: "sensor", Kind: element.KindString},
	element.Field{Name: "celsius", Kind: element.KindFloat},
)

func sensorReading(ts int64, sensor string, celsius float64) stream.Message {
	return stream.ElementMsg(element.New("Reading", temporal.Instant(ts),
		element.NewTuple(sensorSchema, element.String(sensor), element.Float(celsius))))
}

func testEngineService(t *testing.T) (*core.Engine, *Server, *Client, func()) {
	t.Helper()
	e := core.New(core.WithPolicy(core.StateFirst))
	if err := e.DeployRules(`
RULE track ON Reading AS r
THEN REPLACE temperature(r.sensor) = r.celsius

RULE spike ON Reading AS r WHERE r.celsius > 95
THEN EMIT Alert(sensor = r.sensor, celsius = r.celsius)
`); err != nil {
		t.Fatal(err)
	}
	s := NewForEngine(e, nil)
	srv := httptest.NewServer(s)
	return e, s, NewClient(srv.URL), func() { srv.Close(); s.Close() }
}

// waitServerBatches blocks until the server's broker has dispatched n
// watermark batches, settling the asynchronous fan-out.
func waitServerBatches(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m := s.Broker().Metrics()
		if m.Batches+m.SkippedBatches >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("broker settled only %d of %d batches", s.Broker().Metrics().Batches, n)
}

func TestSubscribeSSE(t *testing.T) {
	e, _, client, done := testEngineService(t)
	defer done()

	sub, err := client.Subscribe(SubscribeOptions{Entity: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	alerts, err := client.Subscribe(SubscribeOptions{Stream: "Alert"})
	if err != nil {
		t.Fatal(err)
	}
	defer alerts.Close()

	if err := e.Run([]stream.Message{
		sensorReading(1, "s1", 20),
		sensorReading(2, "s2", 99),
		stream.WatermarkMsg(10),
	}); err != nil {
		t.Fatal(err)
	}

	ev, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "deltas" || ev.Watermark != 10 {
		t.Fatalf("event kind=%s wm=%d, want deltas at 10", ev.Kind, ev.Watermark)
	}
	if len(ev.Changes) != 1 || ev.Changes[0].Fact.Entity != "s1" ||
		ev.Changes[0].Fact.Value.MustFloat() != 20 {
		t.Fatalf("changes over the wire: %+v", ev.Changes)
	}

	ev, err = alerts.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Emitted) != 1 || ev.Emitted[0].Stream != "Alert" ||
		ev.Emitted[0].Fields["sensor"].MustString() != "s2" {
		t.Fatalf("emitted over the wire: %+v", ev.Emitted)
	}

	// Stats now carries the engine-level fields.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["watermark"] != 10 {
		t.Fatalf("stats watermark = %d, want 10", stats["watermark"])
	}
	if stats["emitted"] != 1 {
		t.Fatalf("stats emitted = %d, want 1", stats["emitted"])
	}
	if stats["subscribers"] != 2 {
		t.Fatalf("stats subscribers = %d, want 2", stats["subscribers"])
	}
}

func TestSubscribeReconnectWithCursor(t *testing.T) {
	e, s, client, done := testEngineService(t)
	defer done()

	sub, err := client.Subscribe(SubscribeOptions{Entity: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run([]stream.Message{sensorReading(1, "s1", 20), stream.WatermarkMsg(10)}); err != nil {
		t.Fatal(err)
	}
	first, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	cur := first.Watermark
	if cur != 10 {
		t.Fatalf("cursor = %d, want 10", cur)
	}
	sub.Close()

	// The client misses a watermark while disconnected.
	if err := e.Run([]stream.Message{sensorReading(11, "s1", 25), stream.WatermarkMsg(20)}); err != nil {
		t.Fatal(err)
	}
	waitServerBatches(t, s, 2)

	re, err := client.Subscribe(SubscribeOptions{Entity: "s1", Cursor: cur, HasCursor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ev, err := re.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "resync" || ev.Cut != 20 {
		t.Fatalf("reconnect first event kind=%s cut=%d, want resync at 20", ev.Kind, ev.Cut)
	}
	if len(ev.State) != 1 || ev.State[0].Value.MustFloat() != 25 {
		t.Fatalf("catch-up state %+v, want temperature(s1)=25", ev.State)
	}

	// Deliveries resume after the cut.
	if err := e.Run([]stream.Message{sensorReading(21, "s1", 30), stream.WatermarkMsg(30)}); err != nil {
		t.Fatal(err)
	}
	ev, err = re.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "deltas" || ev.Watermark != 30 {
		t.Fatalf("post-resync event kind=%s wm=%d, want deltas at 30", ev.Kind, ev.Watermark)
	}
}

func TestSubscribeBadParams(t *testing.T) {
	_, _, client, done := testEngineService(t)
	defer done()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(client.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{
		"/subscribe?changes=notabool",
		"/subscribe?emitted=2x",
		"/subscribe?queue=zero",
		"/subscribe?queue=0",
		"/subscribe?cursor=abc",
		"/subscribe?query=" + url.QueryEscape("SELECT nonsense FROM"),
	} {
		if got := status(path); got != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, got)
		}
	}

	// A store-only server has no broker: subscriptions are a 404, and
	// stats omits the engine fields.
	st := state.NewStore()
	st.Replace("ann", "position", element.String("hall"), 10)
	plain := httptest.NewServer(New(st, nil))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("store-only /subscribe = %d, want 404", resp.StatusCode)
	}
	stats, err := NewClient(plain.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["watermark"]; ok {
		t.Fatal("store-only stats should not report a watermark")
	}
}
