package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// groupCommitRules writes exactly one state update per element.
const groupCommitRules = `
RULE track ON Reading AS r
THEN REPLACE temp(r.sensor) = r.celsius
`

// groupCommitBatches builds `batches` watermark-closed micro-batches of
// `size` Reading elements each, strictly increasing in time.
func groupCommitBatches(batches, size int) []stream.Message {
	schema := element.NewSchema(
		element.Field{Name: "sensor", Kind: element.KindString},
		element.Field{Name: "celsius", Kind: element.KindFloat},
	)
	var msgs []stream.Message
	ts := temporal.Instant(0)
	for b := 0; b < batches; b++ {
		for i := 0; i < size; i++ {
			ts++
			el := element.New("Reading", ts, element.NewTuple(schema,
				element.String(fmt.Sprintf("s%02d", i%32)), element.Float(float64(i%90))))
			msgs = append(msgs, stream.ElementMsg(el))
		}
		msgs = append(msgs, stream.WatermarkMsg(ts+1))
	}
	return msgs
}

// TestFlushEveryCountsWrites: the WAL tail counts element writes, not
// frames, so the group-commit path (one staged frame per micro-batch)
// reports one WAL record per write and flushes at the WithFlushEvery
// cadence in writes.
func TestFlushEveryCountsWrites(t *testing.T) {
	// Ingest runs on one worker; the check runs as the "workers=1" case.
	t.Run("workers=1", testFlushEveryCountsWrites)
}

func testFlushEveryCountsWrites(t *testing.T) {
	const batches, size = 4, 512
	msgs := groupCommitBatches(batches, size)
	run := func(flushEvery int) *Engine {
		e := New(WithDurableDir(t.TempDir(), segment.WithFlushEvery(flushEvery)))
		if err := e.DeployRules(groupCommitRules); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(msgs); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := run(1 << 30)
	if got := e.Durable().Info().WALRecords; got != batches*size {
		t.Errorf("WALRecords = %d, want %d element writes", got, batches*size)
	}
	e.Durable().Abandon()

	// The pulse at the watermark after 1024 writes enables a flush the
	// maintenance loop runs in the background. Abandon stops the loop
	// without a final flush of its own, so wait for the loop first: a
	// durable cut past MinInstant is that pulse's.
	e = run(1024)
	for deadline := time.Now().Add(5 * time.Second); e.Durable().DurableTx() <= temporal.MinInstant && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	e.Durable().Abandon()
	if e.Durable().DurableTx() <= temporal.MinInstant {
		t.Errorf("no background flush at WithFlushEvery(1024) over %d writes", batches*size)
	}
}

// TestRecoveryGroupCommitAckedOnly pins the group-commit ack boundary
// across a crash: writes staged after the last Run returned are lost,
// and a non-put record commits the stage before it, so replay
// reproduces the RAM write order.
func TestRecoveryGroupCommitAckedOnly(t *testing.T) {
	t.Run("acked", func(t *testing.T) {
		msgs := oracleMessages(400)
		split := splitAtWatermark(t, msgs, 0.6)
		wm := msgs[split-1].Watermark

		oracle := New()
		if err := oracle.DeployRules(oracleRules); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Run(msgs[:split]); err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		e1 := New(WithDurableDir(dir))
		if err := e1.DeployRules(oracleRules); err != nil {
			t.Fatal(err)
		}
		half := splitAtWatermark(t, msgs, 0.3)
		if err := e1.Run(msgs[:half]); err != nil {
			t.Fatal(err)
		}
		if err := e1.Durable().FlushAt(e1.Watermark() - 1); err != nil {
			t.Fatal(err)
		}
		if err := e1.Run(msgs[half:split]); err != nil {
			t.Fatal(err)
		}
		// A partial batch applied to RAM but never committed: the crash
		// must lose it.
		for i := 0; i < 3; i++ {
			if err := e1.Store().Replace(fmt.Sprintf("s%02d", i), "temp", element.Float(-1), wm+temporal.Instant(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := e1.Store().Find("s00", "temp", state.AsOfValidTime(wm)); !ok {
			t.Fatal("staged write not applied to RAM")
		}
		e1.Durable().Abandon()

		e2 := New(WithDurableDir(dir))
		if err := e2.Process(stream.WatermarkMsg(wm)); err != nil {
			t.Fatal(err)
		}
		if got, want := storeBytes(t, e2), storeBytes(t, oracle); !bytes.Equal(got, want) {
			t.Fatalf("recovered state differs from the acked batches (%d vs %d bytes)", len(got), len(want))
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("order", func(t *testing.T) {
		const t1, t2 = temporal.Instant(100), temporal.Instant(200)
		dir := t.TempDir()
		e1 := New(WithDurableDir(dir))
		st := e1.Store()
		if err := st.Replace("k", "v", element.Int(1), t1); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("k", "v", element.Int(2),
			state.WithValidTime(t1+5), state.WithTransactionTime(t1+5)); err != nil {
			t.Fatal(err)
		}
		if err := st.Replace("k", "v", element.Int(3), t2); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		want := storeBytes(t, e1)
		e1.Durable().Abandon()

		e2 := New(WithDurableDir(dir))
		if err := e2.Health().DurableErr; err != nil {
			t.Fatal(err)
		}
		if got := storeBytes(t, e2); !bytes.Equal(got, want) {
			t.Fatalf("replayed state differs from RAM (%d vs %d bytes)", len(got), len(want))
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
