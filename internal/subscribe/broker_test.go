package subscribe

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
)

var readingSchema = element.NewSchema(
	element.Field{Name: "sensor", Kind: element.KindString},
	element.Field{Name: "celsius", Kind: element.KindFloat},
)

func reading(ts int64, sensor string, celsius float64) *element.Element {
	return element.New("Reading", temporal.Instant(ts),
		element.NewTuple(readingSchema, element.String(sensor), element.Float(celsius)))
}

const testRules = `
RULE track ON Reading AS r
THEN REPLACE temperature(r.sensor) = r.celsius

RULE spike ON Reading AS r WHERE r.celsius > 95
THEN EMIT Alert(sensor = r.sensor, celsius = r.celsius)
`

func testEngine(t *testing.T, opts ...core.Option) *core.Engine {
	t.Helper()
	e := core.New(append([]core.Option{core.WithPolicy(core.StateFirst)}, opts...)...)
	if err := e.DeployRules(testRules); err != nil {
		t.Fatal(err)
	}
	return e
}

// waitBatches blocks until the broker has accounted for n watermark
// batches (dispatched or skipped), i.e. the asynchronous fan-out of an
// ingestion run has settled.
func waitBatches(t *testing.T, b *Broker, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m := b.Metrics()
		if m.Batches+m.SkippedBatches >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("broker settled only %d of %d batches", b.Metrics().Batches, n)
}

func recvTimeout(t *testing.T, s *Subscriber) Delivery {
	t.Helper()
	type res struct {
		d  Delivery
		ok bool
	}
	ch := make(chan res, 1)
	go func() { d, ok := s.Recv(); ch <- res{d, ok} }()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatal("subscriber closed while a delivery was expected")
		}
		return r.d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a delivery")
	}
	panic("unreachable")
}

// factLines renders facts in a canonical order for equality checks:
// everything but the atomic belief end, read through the safe accessor.
func factLines(facts []*element.Fact) []string {
	lines := make([]string, len(facts))
	for i, f := range facts {
		lines[i] = fmt.Sprintf("%s/%s=%s v=%v rec=%d end=%d",
			f.Entity, f.Attribute, f.Value.Key(), f.Validity, f.RecordedAt, f.BeliefEnd())
	}
	sort.Strings(lines)
	return lines
}

// directCatchUp reads the filtered state straight off the store at the
// advertised cut — the oracle the resync contract promises to equal.
func directCatchUp(st *state.Store, cut temporal.Instant, f Filter) []*element.Fact {
	return catchUp(st.SnapshotAt(cut), f)
}

func sameState(t *testing.T, got []*element.Fact, st *state.Store, cut temporal.Instant, f Filter) {
	t.Helper()
	want := factLines(directCatchUp(st, cut, f))
	have := factLines(got)
	if len(want) != len(have) {
		t.Fatalf("catch-up has %d facts, SnapshotAt(%d) has %d", len(have), cut, len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("catch-up fact %d = %s, want %s", i, have[i], want[i])
		}
	}
}

func TestSubscribeDeltaDelivery(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()

	all, err := b.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := b.Subscribe(Filter{Entity: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := b.Subscribe(Filter{Stream: "Alert"})
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(1, "s1", 20)),
		stream.ElementMsg(reading(2, "s2", 99)),
		stream.WatermarkMsg(10),
	}); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, 1)

	d := recvTimeout(t, ent)
	if d.Kind != Deltas || d.Watermark != 10 {
		t.Fatalf("entity sub delivery: kind=%v wm=%d", d.Kind, d.Watermark)
	}
	if len(d.Changes) != 1 || d.Changes[0].Fact.Entity != "s1" || len(d.Emitted) != 0 {
		t.Fatalf("entity sub saw %d changes / %d emitted", len(d.Changes), len(d.Emitted))
	}

	d = recvTimeout(t, alerts)
	if len(d.Emitted) != 1 || d.Emitted[0].Stream != "Alert" || len(d.Changes) != 0 {
		t.Fatalf("stream sub saw %d emitted / %d changes", len(d.Emitted), len(d.Changes))
	}

	d = recvTimeout(t, all)
	if len(d.Changes) != 2 || len(d.Emitted) != 1 {
		t.Fatalf("match-all sub saw %d changes / %d emitted, want 2 / 1", len(d.Changes), len(d.Emitted))
	}
	for _, ch := range d.Changes {
		if ch.Kind != state.Asserted || ch.Fact.Attribute != "temperature" {
			t.Fatalf("unexpected change %v %s", ch.Kind, ch.Fact)
		}
	}

	// A watermark whose batch touched nothing in the filter delivers
	// nothing: the attribute filter rejects Alert-only traffic.
	attr, err := b.Subscribe(Filter{Attr: "pressure"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(11, "s3", 99)),
		stream.WatermarkMsg(20),
	}); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, 2)
	if d, ok := attr.TryRecv(); ok {
		t.Fatalf("attribute sub got unexpected delivery %v", d)
	}
}

func TestSubscribeSlowConsumerResync(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()

	slow, err := b.Subscribe(Filter{Entity: "s1"}, WithQueueLen(2))
	if err != nil {
		t.Fatal(err)
	}

	var msgs []stream.Message
	for i := 0; i < 6; i++ {
		msgs = append(msgs, stream.ElementMsg(reading(int64(i*10+1), "s1", float64(i))))
		msgs = append(msgs, stream.WatermarkMsg(temporal.Instant((i+1)*10)))
	}
	if err := e.Run(msgs); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, 6)
	if !slow.lost.Load() {
		t.Fatal("slow subscriber should have overflowed its queue")
	}

	// The queued prefix drains first, in watermark order.
	for i, want := range []temporal.Instant{10, 20} {
		d := recvTimeout(t, slow)
		if d.Kind != Deltas || d.Watermark != want {
			t.Fatalf("drain %d: kind=%v wm=%d, want deltas at %d", i, d.Kind, d.Watermark, want)
		}
	}
	// Then exactly one resync at the latest cut, equal to a direct
	// SnapshotAt read.
	d := recvTimeout(t, slow)
	if d.Kind != Resync {
		t.Fatalf("after drain got %v, want resync", d.Kind)
	}
	if d.Cut != 60 || d.Watermark != 60 {
		t.Fatalf("resync cut=%d wm=%d, want 60", d.Cut, d.Watermark)
	}
	sameState(t, d.State, e.Store(), d.Cut, slow.filter)
	if len(d.State) != 1 || d.State[0].Value.Key() != element.Float(5).Key() {
		t.Fatalf("resync state %v, want temperature(s1)=5", d.State)
	}
	if d2, ok := slow.TryRecv(); ok {
		t.Fatalf("second resync/delivery %v after catch-up", d2)
	}
	if got := b.Metrics().Resyncs; got != 1 {
		t.Fatalf("resyncs = %d, want exactly 1", got)
	}

	// Deliveries resume from the next watermark after the cut.
	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(61, "s1", 42)),
		stream.WatermarkMsg(70),
	}); err != nil {
		t.Fatal(err)
	}
	d = recvTimeout(t, slow)
	if d.Kind != Deltas || d.Watermark != 70 {
		t.Fatalf("post-resync delivery kind=%v wm=%d, want deltas at 70", d.Kind, d.Watermark)
	}
}

func TestSubscribeQueryPush(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()

	if _, err := b.Subscribe(Filter{Query: "SELECT nonsense FROM"}); err == nil {
		t.Fatal("malformed continuous query accepted")
	}
	q, err := b.Subscribe(Filter{Query: "SELECT entity, value FROM temperature ORDER BY entity"})
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(1, "s1", 20)),
		stream.WatermarkMsg(10),
	}); err != nil {
		t.Fatal(err)
	}
	d := recvTimeout(t, q)
	if d.Result == nil || len(d.Result.Rows) != 1 {
		t.Fatalf("first push result %v, want one row", d.Result)
	}
	if got := d.Result.Rows[0][1].MustFloat(); got != 20 {
		t.Fatalf("pushed value %v, want 20", got)
	}

	// A watermark that does not change the result pushes nothing.
	if err := e.Process(stream.WatermarkMsg(20)); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, 2)
	if d, ok := q.TryRecv(); ok {
		t.Fatalf("unchanged query result pushed: %v", d)
	}

	// A state change re-triggers the push.
	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(21, "s1", 25)),
		stream.WatermarkMsg(30),
	}); err != nil {
		t.Fatal(err)
	}
	d = recvTimeout(t, q)
	if d.Result == nil || d.Result.Rows[0][1].MustFloat() != 25 {
		t.Fatalf("second push result %v, want value 25", d.Result)
	}
}

func TestSubscribeResumeFromCursor(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()

	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(1, "s1", 20)),
		stream.WatermarkMsg(10),
	}); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, 1)

	// A cursor behind the current cut starts lost: the first receive is
	// a catch-up, not a silent gap.
	behind, err := b.Subscribe(Filter{Entity: "s1"}, ResumeFrom(5))
	if err != nil {
		t.Fatal(err)
	}
	d := recvTimeout(t, behind)
	if d.Kind != Resync || d.Cut != 10 {
		t.Fatalf("stale-cursor first delivery kind=%v cut=%d, want resync at 10", d.Kind, d.Cut)
	}
	sameState(t, d.State, e.Store(), d.Cut, behind.filter)

	// A current cursor resumes silently.
	current, err := b.Subscribe(Filter{Entity: "s1"}, ResumeFrom(10))
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := current.TryRecv(); ok {
		t.Fatalf("current-cursor subscriber got %v before any new watermark", d)
	}
}

func TestSubscribeClose(t *testing.T) {
	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()

	s, err := b.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run([]stream.Message{
		stream.ElementMsg(reading(1, "s1", 20)),
		stream.WatermarkMsg(10),
	}); err != nil {
		t.Fatal(err)
	}
	waitBatches(t, b, 1)
	s.Close()
	s.Close() // idempotent

	// Queued deliveries stay readable after Close; then ok=false.
	if d, ok := s.Recv(); !ok || d.Kind != Deltas {
		t.Fatalf("post-close drain got ok=%v kind=%v", ok, d.Kind)
	}
	if _, ok := s.Recv(); ok {
		t.Fatal("Recv after drain of a closed subscriber returned ok=true")
	}
	if got := b.Metrics().Subscribers; got != 0 {
		t.Fatalf("subscribers = %d after close, want 0", got)
	}
}

// TestSubscribeStress is the slow-consumer soak: many live subscribers
// plus one permanently stalled one must not perturb ingestion, and the
// stalled subscriber must see exactly one resync whose catch-up equals a
// direct SnapshotAt read at the advertised cut.
func TestSubscribeStress(t *testing.T) {
	const (
		elements = 20_000
		wmEvery  = 512
		sensors  = 100
		live     = 16
	)
	mkMsgs := func() []stream.Message {
		els := make([]*element.Element, elements)
		for i := range els {
			els[i] = reading(int64(i+1), fmt.Sprintf("s%d", i%sensors), float64(20+i%80))
		}
		return stream.WithPeriodicWatermarks(els, wmEvery)
	}

	// Baseline: same workload, no broker.
	base := testEngine(t)
	t0 := time.Now()
	if err := base.Run(mkMsgs()); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(t0)

	e := testEngine(t)
	b := NewBroker(e)
	defer b.Close()

	stalled, err := b.Subscribe(Filter{}, WithQueueLen(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var delivered [live]uint64
	subs := make([]*Subscriber, live)
	for i := 0; i < live; i++ {
		f := Filter{Entity: fmt.Sprintf("s%d", i%sensors)}
		if i%3 == 0 {
			f = Filter{Stream: "Alert"}
		}
		s, err := b.Subscribe(f)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
		wg.Add(1)
		go func(i int, s *Subscriber) {
			defer wg.Done()
			for {
				if _, ok := s.Recv(); !ok {
					return
				}
				delivered[i]++
			}
		}(i, s)
	}

	t1 := time.Now()
	if err := e.Run(mkMsgs()); err != nil {
		t.Fatal(err)
	}
	ingest := time.Since(t1)
	// The stalled subscriber must never block a watermark. Wall-clock
	// comparison with a very generous bound: same process, same detector
	// overhead, so a blocked fan-out would blow far past this.
	if baseline > 10*time.Millisecond && ingest > 10*baseline {
		t.Fatalf("ingest with stalled subscriber took %v vs %v baseline", ingest, baseline)
	}

	const batches = elements / wmEvery
	waitBatches(t, b, batches)
	for i := range subs {
		subs[i].Close()
	}
	wg.Wait()
	for i, n := range delivered {
		if n == 0 {
			t.Fatalf("live subscriber %d received nothing", i)
		}
	}

	// Drain the stalled subscriber: a deltas prefix, exactly one resync,
	// nothing after.
	resyncs, prefix := 0, 0
	var cut temporal.Instant
	var caught []*element.Fact
	for {
		d, ok := stalled.TryRecv()
		if !ok {
			break
		}
		switch d.Kind {
		case Deltas:
			if resyncs > 0 {
				t.Fatal("deltas delivered after the resync with no new watermark")
			}
			prefix++
		case Resync:
			resyncs++
			cut, caught = d.Cut, d.State
		}
	}
	if resyncs != 1 {
		t.Fatalf("stalled subscriber saw %d resyncs, want exactly 1 (prefix %d)", resyncs, prefix)
	}
	sameState(t, caught, e.Store(), cut, stalled.filter)
}
