package state

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

func batchWorkload(n, keys int) []BatchPut {
	puts := make([]BatchPut, n)
	for i := range puts {
		puts[i] = BatchPut{
			Entity: fmt.Sprintf("k%03d", i%keys),
			Attr:   "value",
			Value:  element.Int(int64(i)),
			At:     temporal.Instant(i + 1),
		}
	}
	return puts
}

func sameFacts(t *testing.T, what string, a, b []*element.Fact) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d facts vs %d", what, len(a), len(b))
	}
	for i := range a {
		as := fmt.Sprintf("%s|%s|%s|%s|%d|%d", a[i].Entity, a[i].Attribute, a[i].Value,
			a[i].Validity, a[i].RecordedAt, a[i].SupersededAt)
		bs := fmt.Sprintf("%s|%s|%s|%s|%d|%d", b[i].Entity, b[i].Attribute, b[i].Value,
			b[i].Validity, b[i].RecordedAt, b[i].SupersededAt)
		if as != bs {
			t.Fatalf("%s[%d]: %s vs %s", what, i, as, bs)
		}
	}
}

// TestPutBatchEquivalence: one group commit leaves the same state as the
// equivalent loop of Replaces.
func TestPutBatchEquivalence(t *testing.T) {
	puts := batchWorkload(1_000, 37)
	looped, batched := NewStore(), NewStore()
	for _, p := range puts {
		if err := looped.Replace(p.Entity, p.Attr, p.Value, p.At); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	sameFacts(t, "state", looped.List(AllVersions()), batched.List(AllVersions()))
	ls, bs := looped.Stats(), batched.Stats()
	ls.TxHigh, bs.TxHigh = 0, 0
	if ls != bs {
		t.Fatalf("stats: %+v vs %+v", ls, bs)
	}
}

// TestPutBatchReplay: the WAL's one framed record per batch replays to
// the state an unbatched log replays to.
func TestPutBatchReplay(t *testing.T) {
	puts := batchWorkload(500, 11)

	batched := NewStore()
	walBatch, dirBatch := openWAL(t, batched)
	if err := batched.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	looped := NewStore()
	walLoop, dirLoop := openWAL(t, looped)
	for _, p := range puts {
		if err := looped.Replace(p.Entity, p.Attr, p.Value, p.At); err != nil {
			t.Fatal(err)
		}
	}
	closeWAL(t, walBatch)
	closeWAL(t, walLoop)

	// Recovery counts writes, not frames: both logs hold one frame (the
	// loop's Replaces were staged and committed by Close) of every put.
	fromBatch, n := recoverWAL(t, dirBatch)
	if n != len(puts) {
		t.Fatalf("batched WAL: %d writes, want %d", n, len(puts))
	}
	fromLoop, n := recoverWAL(t, dirLoop)
	if n != len(puts) {
		t.Fatalf("looped WAL: %d writes, want %d", n, len(puts))
	}
	sameFacts(t, "replayed", fromLoop.List(AllVersions()), fromBatch.List(AllVersions()))
}

// TestPutBatchOutOfOrder: a monotonicity violation stops the batch with
// ErrOutOfOrder; earlier entries stay applied (the loop-of-Replaces contract)
// and the WAL frame carries exactly the applied entries.
func TestPutBatchOutOfOrder(t *testing.T) {
	st := NewStore()
	wal, dir := openWAL(t, st)
	puts := []BatchPut{
		{Entity: "a", Attr: "v", Value: element.Int(1), At: 10},
		{Entity: "a", Attr: "v", Value: element.Int(2), At: 5}, // regresses
		{Entity: "a", Attr: "v", Value: element.Int(3), At: 20},
	}
	err := st.PutBatch(puts)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err: %v", err)
	}
	f, ok := st.Find("a", "v")
	if !ok || f.Validity.Start != 10 {
		t.Fatalf("applied prefix: %v %v", f, ok)
	}
	closeWAL(t, wal)
	restored, _ := recoverWAL(t, dir)
	sameFacts(t, "replayed prefix", st.List(AllVersions()), restored.List(AllVersions()))
}

// TestPutBatchWatchers: watchers see every change of the batch.
func TestPutBatchWatchers(t *testing.T) {
	st := NewStore()
	var asserted, terminated int
	st.WatchBatch(func(cs []Change) {
		for _, c := range cs {
			switch c.Kind {
			case Asserted:
				asserted++
			case Terminated:
				terminated++
			}
		}
	})
	if err := st.PutBatch(batchWorkload(100, 10)); err != nil {
		t.Fatal(err)
	}
	if asserted != 100 || terminated != 90 {
		t.Fatalf("watcher counts: %d asserted, %d terminated", asserted, terminated)
	}
}

// TestFindValueSpec: the spec-based value read agrees with the option-
// based Find across both time axes.
func TestFindValueSpec(t *testing.T) {
	st := NewStore()
	for v := 1; v <= 4; v++ {
		if err := st.Put("ann", "position", element.Int(int64(v)),
			WithValidTime(temporal.Instant(v*10)), WithTransactionTime(temporal.Instant(v*10))); err != nil {
			t.Fatal(err)
		}
	}
	// Retroactive correction recorded at 100 over [15, 25).
	if err := st.Put("ann", "position", element.Int(-1),
		WithValidTime(15), WithEndValidTime(25), WithTransactionTime(100)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec ReadSpec
		opts []ReadOpt
	}{
		{ReadSpec{}, nil},
		{ReadSpec{ValidAt: 17, HasValidAt: true}, []ReadOpt{AsOfValidTime(17)}},
		{ReadSpec{ValidAt: 17, HasValidAt: true, TxAt: 50, HasTxAt: true},
			[]ReadOpt{AsOfValidTime(17), AsOfTransactionTime(50)}},
		{ReadSpec{ValidAt: 999, HasValidAt: true}, []ReadOpt{AsOfValidTime(999)}},
	}
	for i, c := range cases {
		wantF, wantOK := st.Find("ann", "position", c.opts...)
		gotV, gotOK := st.FindValue("ann", "position", c.spec)
		if gotOK != wantOK {
			t.Fatalf("case %d: ok %v, want %v", i, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		if !gotV.Equal(wantF.Value) {
			t.Fatalf("case %d: value %s, want %s", i, gotV, wantF.Value)
		}
	}
}
