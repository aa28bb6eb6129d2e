package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/state/segment"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// storeBytes serializes an engine's full bitemporal state — the
// byte-identical comparison surface of the restart tests.
func storeBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Store().WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// splitAtWatermark returns the index just past the first watermark after
// the given fraction of the stream — a legal restart boundary: every
// element at or before the watermark has committed, none after it has
// been seen.
func splitAtWatermark(t *testing.T, msgs []stream.Message, frac float64) int {
	t.Helper()
	from := int(float64(len(msgs)) * frac)
	for i := from; i < len(msgs); i++ {
		if msgs[i].IsWatermark {
			return i + 1
		}
	}
	t.Fatalf("no watermark after index %d", from)
	return -1
}

// durableQueries are the on-demand probes compared between a restarted
// durable engine and the never-restarted oracle — current state plus
// temporal and SYSTEM TIME (transaction-time) reads spanning the restart
// point.
var durableQueries = []string{
	"SELECT entity, value FROM temp",
	"SELECT entity, value FROM temp ASOF 120",
	"SELECT entity, value FROM temp ASOF 220",
	"SELECT entity, value FROM temp SYSTEM TIME ASOF 150",
	"SELECT entity, value FROM temp ASOF 120 SYSTEM TIME ASOF 150",
	"SELECT entity, value FROM temp ASOF 120 SYSTEM TIME ASOF 350",
	"SELECT entity, value, recorded, superseded FROM temp HISTORY",
}

// TestRecoveryDurableEngineRestart kills a durable engine mid-stream —
// after a flush plus a WAL-tail's worth of further elements, without
// Close — restarts it on the same directory, feeds the rest of the
// stream, and requires byte-identical state and identical SYSTEM TIME
// query answers versus an engine that never restarted. The WAL tail it
// recovers holds the engine's per-micro-batch group-commit frames.
func TestRecoveryDurableEngineRestart(t *testing.T) {
	// Ingest is serial; the restart runs as the "serial" case.
	t.Run("serial", testDurableEngineRestart)
}

func testDurableEngineRestart(t *testing.T) {
	msgs := oracleMessages(400)
	flushAtIdx := splitAtWatermark(t, msgs, 0.3)
	split := splitAtWatermark(t, msgs, 0.6)

	oracle := oracleEngine(t, StateFirst)
	if err := oracle.Run(msgs); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e1 := New(WithDurableDir(dir))
	if err := e1.DeployRules(oracleRules); err != nil {
		t.Fatal(err)
	}
	if err := e1.Run(msgs[:flushAtIdx]); err != nil {
		t.Fatal(err)
	}
	// One explicit flush mid-history at the engine's cut: one tick
	// behind the watermark, since elements stamped exactly at a
	// watermark may still follow it (see Engine.advance).
	if err := e1.Durable().FlushAt(e1.Watermark() - 1); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// More elements land in the WAL tail only; then the crash —
	// no Close, no final flush.
	if err := e1.Run(msgs[flushAtIdx:split]); err != nil {
		t.Fatal(err)
	}
	if info := e1.Durable().Info(); info.Segments == 0 || info.WALRecords == 0 {
		t.Fatalf("restart precondition needs segments AND a WAL tail, got %+v", info)
	}
	// The crash: drop the directory lock and descriptors without
	// flushing, exactly as process death would.
	e1.Durable().Abandon()

	e2 := New(WithDurableDir(dir))
	if err := e2.DeployRules(oracleRules); err != nil {
		t.Fatal(err)
	}
	if err := e2.Run(msgs[split:]); err != nil {
		t.Fatal(err)
	}
	if got, want := storeBytes(t, e2), storeBytes(t, oracle); !bytes.Equal(got, want) {
		t.Fatalf("restarted state differs from oracle (%d vs %d bytes)", len(got), len(want))
	}
	for _, q := range durableQueries {
		want, err := oracle.Query(q)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		got, err := e2.Query(q)
		if err != nil {
			t.Fatalf("restarted %q: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%q diverged after restart:\ngot:\n%s\nwant:\n%s", q, got, want)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRecoveryDurableEnginePulse drives the maintenance loop the way
// production does — a Pulse at each watermark, flushing once enough
// writes arrived since the last flush — closes cleanly, and requires the reopened engine to
// match the oracle byte-identically with an empty WAL tail.
func TestRecoveryDurableEnginePulse(t *testing.T) {
	msgs := oracleMessages(400)
	oracle := oracleEngine(t, StateFirst)
	if err := oracle.Run(msgs); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e1 := New(WithDurableDir(dir, segment.WithFlushEvery(64)))
	if err := e1.DeployRules(oracleRules); err != nil {
		t.Fatal(err)
	}
	if err := e1.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := New(WithDurableDir(dir))
	if err := e2.DeployRules(oracleRules); err != nil {
		t.Fatal(err)
	}
	info := e2.Durable().Info()
	if info.Segments == 0 {
		t.Fatalf("background pulses flushed nothing: %+v", info)
	}
	if info.WALRecords != 0 {
		t.Fatalf("clean close should leave an empty WAL tail: %+v", info)
	}
	// The reopened engine answers from recovered state; anchor now() by
	// re-advancing the final watermark.
	if err := e2.Process(stream.WatermarkMsg(temporal.Instant(400))); err != nil {
		t.Fatal(err)
	}
	if got, want := storeBytes(t, e2), storeBytes(t, oracle); !bytes.Equal(got, want) {
		t.Fatalf("reopened state differs from oracle")
	}
	for _, q := range durableQueries {
		want, _ := oracle.Query(q)
		got, err := e2.Query(q)
		if err != nil {
			t.Fatalf("reopened %q: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%q diverged after clean reopen:\ngot:\n%s\nwant:\n%s", q, got, want)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOptionOrder: WithResidencyBudget and WithDurableDir compose
// in either order. Each order reopens its own copy of a 200-key directory
// under a 1-byte budget, so the cold start must leave keys evicted — the
// same number both ways.
func TestDurableOptionOrder(t *testing.T) {
	build := func() string {
		dir := t.TempDir()
		e := New(WithDurableDir(dir))
		for i := 0; i < 200; i++ {
			if err := e.Store().Put(fmt.Sprintf("k%03d", i), "v", element.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	evicted := func(opts ...Option) int {
		e := New(opts...)
		defer e.Close()
		if err := e.Health().DurableErr; err != nil {
			t.Fatal(err)
		}
		return e.Durable().Info().EvictedLineages
	}
	dirFirst := build()
	budgetFirst := build()
	a := evicted(WithDurableDir(dirFirst), WithResidencyBudget(1))
	b := evicted(WithResidencyBudget(1), WithDurableDir(budgetFirst))
	if a == 0 || a != b {
		t.Fatalf("evicted lineages: dir-first %d, budget-first %d; want equal and > 0", a, b)
	}
}
