package state

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestRetroactivePutSupersedes is the core bitemporal contract: a
// retroactive correction is visible under default reads but invisible
// under AsOfTransactionTime instants before the write.
func TestRetroactivePutSupersedes(t *testing.T) {
	st := NewStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.Put("ann", "position", element.String("hall"), WithValidTime(10), WithTransactionTime(10)))
	must(st.Put("ann", "position", element.String("lab"), WithValidTime(20), WithTransactionTime(20)))

	// At tx 50 we learn ann was actually in the vault over [12, 18).
	must(st.Put("ann", "position", element.String("vault"),
		WithValidTime(12), WithEndValidTime(18), WithTransactionTime(50)))

	// Default reads see the corrected timeline.
	if f, ok := st.Find("ann", "position", AsOfValidTime(15)); !ok || f.Value.MustString() != "vault" {
		t.Fatalf("default read at vt=15: %v %v", f, ok)
	}
	// But the belief at tx 30 predates the correction.
	if f, ok := st.Find("ann", "position", AsOfValidTime(15), AsOfTransactionTime(30)); !ok || f.Value.MustString() != "hall" {
		t.Fatalf("belief at tt=30 about vt=15: %v %v", f, ok)
	}
	// The open version is unaffected either way.
	if f, ok := st.Find("ann", "position"); !ok || f.Value.MustString() != "lab" {
		t.Fatalf("current: %v %v", f, ok)
	}

	// Corrected history: hall [10,12), vault [12,18), hall [18,20), lab [20,∞).
	hist := st.History("ann", "position")
	wantVals := []string{"hall", "vault", "hall", "lab"}
	if len(hist) != len(wantVals) {
		t.Fatalf("corrected history: %v", hist)
	}
	for i, w := range wantVals {
		if hist[i].Value.MustString() != w {
			t.Errorf("history[%d] = %s, want %s", i, hist[i].Value, w)
		}
	}
	if hist[0].Validity != temporal.NewInterval(10, 12) || hist[1].Validity != temporal.NewInterval(12, 18) ||
		hist[2].Validity != temporal.NewInterval(18, 20) || hist[3].Validity != temporal.Since(20) {
		t.Errorf("corrected intervals: %v", hist)
	}

	// Belief-at-30 history is the uncorrected timeline.
	old := st.History("ann", "position", AsOfTransactionTime(30))
	if len(old) != 2 || old[0].Validity != temporal.NewInterval(10, 20) || old[1].Validity != temporal.Since(20) {
		t.Fatalf("belief-at-30 history: %v", old)
	}

	// The audit log keeps every record, superseded included.
	audit := st.History("ann", "position", AllVersions())
	if len(audit) != 6 { // 2 originals + correction + 2 remnants + lab untouched? lab is one of the originals
		// originals: hall[10,∞)→superseded@20, lab[20,∞);
		// after correction: hall[10,20) superseded@50, remnants hall[10,12), hall[18,20), vault[12,18).
		t.Fatalf("audit trail: %d records: %v", len(audit), audit)
	}
	superseded := 0
	for _, f := range audit {
		if f.Superseded() {
			superseded++
		}
	}
	if superseded != 2 {
		t.Errorf("superseded records: %d, want 2", superseded)
	}
	if got := st.Stats(); got.Records != 6 || got.Versions != 4 || got.Superseded != 2 {
		t.Errorf("stats: %+v", got)
	}
}

// TestRetroactiveDelete removes a slice of believed history.
func TestRetroactiveDelete(t *testing.T) {
	st := NewStore()
	if err := st.Put("e", "a", element.Int(1), WithValidTime(0), WithTransactionTime(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("e", "a", WithValidTime(10), WithEndValidTime(20), WithTransactionTime(30)); err != nil {
		t.Fatal(err)
	}
	hist := st.History("e", "a")
	if len(hist) != 2 || hist[0].Validity != temporal.NewInterval(0, 10) || hist[1].Validity != temporal.Since(20) {
		t.Fatalf("history after retro delete: %v", hist)
	}
	if _, ok := st.Find("e", "a", AsOfValidTime(15)); ok {
		t.Error("deleted range should be empty under default reads")
	}
	if f, ok := st.Find("e", "a", AsOfValidTime(15), AsOfTransactionTime(20)); !ok || f.Value.MustInt() != 1 {
		t.Errorf("belief before delete: %v %v", f, ok)
	}
	// Deleting where nothing holds is a no-op, even for unknown keys.
	if err := st.Delete("ghost", "a", WithValidTime(0)); err != nil {
		t.Errorf("delete of unknown key: %v", err)
	}
}

// TestTransactionClockDefaults checks that writes without explicit
// transaction times land at the store's high-water mark, so a retroactive
// valid time alone never backdates belief.
func TestTransactionClockDefaults(t *testing.T) {
	st := NewStore()
	st.Put("e", "a", element.Int(1), WithValidTime(100))
	st.Put("e", "a", element.Int(2), WithValidTime(40)) // retroactive, tx defaults to 101
	f, ok := st.Find("e", "a", AsOfValidTime(50))
	if !ok || f.Value.MustInt() != 2 {
		t.Fatalf("corrected read: %v %v", f, ok)
	}
	if f.RecordedAt != 101 {
		t.Errorf("default tx should advance past the clock high-water mark, got %s", f.RecordedAt)
	}
	// Belief as of tx 99 predates the first write entirely.
	if _, ok := st.Find("e", "a", AsOfValidTime(50), AsOfTransactionTime(99)); ok {
		t.Error("nothing was believed before the first write")
	}
	if st.Stats().TxHigh != 101 {
		t.Errorf("txHigh: %s", st.Stats().TxHigh)
	}
	// Two writes with all defaults get distinct transaction times, so the
	// first belief stays recoverable (supersede, never destroy).
	st2 := NewStore()
	st2.Put("x", "a", element.Int(1))
	st2.Put("x", "a", element.Int(2))
	first, ok := st2.Find("x", "a", AsOfValidTime(1), AsOfTransactionTime(1))
	if !ok || first.Value.MustInt() != 1 {
		t.Fatalf("pre-correction belief lost under default clocks: %v %v", first, ok)
	}
}

// TestFindListOptionCombos exercises the read-option matrix.
func TestFindListOptionCombos(t *testing.T) {
	st := NewStore()
	st.Put("ann", "position", element.String("hall"), WithValidTime(0), WithTransactionTime(0))
	st.Put("bob", "position", element.String("lab"), WithValidTime(5), WithTransactionTime(5))
	st.Put("ann", "badge", element.Int(7), WithValidTime(0), WithTransactionTime(0))
	st.Put("ann", "position", element.String("roof"), WithValidTime(10), WithTransactionTime(10))

	if got := st.List(); len(got) != 3 { // badge(ann), roof(ann), lab(bob)
		t.Fatalf("List all current: %v", got)
	}
	if got := st.List(WithAttribute("position")); len(got) != 2 || got[0].Entity != "ann" || got[1].Entity != "bob" {
		t.Fatalf("List position: %v", got)
	}
	if got := st.List(WithAttribute("position"), AsOfValidTime(7)); len(got) != 2 || got[0].Value.MustString() != "hall" {
		t.Fatalf("List asof 7: %v", got)
	}
	if got := st.List(WithAttribute("position"), DuringValidTime(0, 20)); len(got) != 3 {
		t.Fatalf("List during: %v", got)
	}
	if got := st.List(WithAttribute("position"), AsOfValidTime(7), AsOfTransactionTime(3)); len(got) != 1 || got[0].Entity != "ann" {
		t.Fatalf("List asof vt=7 tt=3: %v", got)
	}
	if got := st.List(AllVersions()); len(got) != 4 { // hall[0,10), roof[10,∞), lab, badge
		t.Fatalf("List all versions: %v", got)
	}
}

// TestBitemporalLogReplay proves the wire format round-trips retroactive
// corrections: replayed stores answer transaction-time queries identically.
func TestBitemporalLogReplay(t *testing.T) {
	st := NewStore()
	l, dir := openWAL(t, st)
	st.Put("ann", "position", element.String("hall"), WithValidTime(10), WithTransactionTime(10))
	st.Put("ann", "position", element.String("vault"),
		WithValidTime(12), WithEndValidTime(18), WithTransactionTime(50))
	st.Delete("ann", "position", WithValidTime(30), WithTransactionTime(60))
	closeWAL(t, l)

	restored, n := recoverWAL(t, dir)
	if n != 3 {
		t.Fatalf("replayed %d records", n)
	}
	assertBitemporalEqual(t, st, restored)
}

// TestSnapshotPreservesTransactionTime proves recovery carries
// superseded records and belief intervals: the recovered store dumps the
// identical cut.
func TestSnapshotPreservesTransactionTime(t *testing.T) {
	st := NewStore()
	l, dir := openWAL(t, st)
	st.Put("e", "a", element.Int(1), WithValidTime(0), WithTransactionTime(0))
	st.Put("e", "a", element.Int(2), WithValidTime(0), WithTransactionTime(10)) // same-start correction
	closeWAL(t, l)

	restored, _ := recoverWAL(t, dir)
	assertSameCut(t, st, restored)
	if f, ok := restored.Find("e", "a", AsOfValidTime(5), AsOfTransactionTime(5)); !ok || f.Value.MustInt() != 1 {
		t.Fatalf("restored belief at 5: %v %v", f, ok)
	}
	if restored.Stats().TxHigh != 10 {
		t.Errorf("restored txHigh: %s", restored.Stats().TxHigh)
	}
}

// TestSnapshotRoundTripDefaultClock is the regression for recovery of
// stores written entirely with default options (early transaction
// times, including superseded-at-small-instants records).
func TestSnapshotRoundTripDefaultClock(t *testing.T) {
	st := NewStore()
	l, dir := openWAL(t, st)
	st.Put("a", "x", element.Int(1))
	st.Put("a", "x", element.Int(2)) // supersedes at a small tx
	closeWAL(t, l)
	restored, _ := recoverWAL(t, dir)
	assertSameCut(t, st, restored)
}

// assertSameCut checks that got holds want's bitemporal state record for
// record and dumps the byte-identical cut.
func assertSameCut(t *testing.T, want, got *Store) {
	t.Helper()
	assertBitemporalEqual(t, want, got)
	var wb, gb bytes.Buffer
	if err := want.WriteSnapshot(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteSnapshot(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatal("recovered store dumps a different cut")
	}
}

// TestRetroactiveWritesNotifyWatchers: a correction that fully covers a
// believed version still emits a Terminated change for it.
func TestRetroactiveWritesNotifyWatchers(t *testing.T) {
	st := NewStore()
	st.Put("e", "a", element.Int(1), WithValidTime(10), WithEndValidTime(20), WithTransactionTime(10))
	var got []Change
	st.WatchBatch(func(cs []Change) { got = append(got, cs...) })
	// Covers [10,20) entirely: the old version leaves the belief.
	st.Put("e", "a", element.Int(2), WithValidTime(5), WithEndValidTime(25), WithTransactionTime(30))
	if len(got) != 2 || got[0].Kind != Terminated || got[1].Kind != Asserted {
		t.Fatalf("changes: %v", got)
	}
	if got[0].Fact.Validity != temporal.NewInterval(10, 20) {
		t.Errorf("terminated fact should carry the superseded validity: %v", got[0].Fact)
	}
}

// TestLegacyPutStillMonotonic pins the stream-append contract that the old
// positional Put carried and Replace keeps: out-of-order writes are
// rejected rather than treated as corrections.
func TestLegacyPutStillMonotonic(t *testing.T) {
	st := NewStore()
	st.Replace("e", "a", element.Int(1), 10)
	if err := st.Replace("e", "a", element.Int(2), 5); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
	// The same instants through the bitemporal Put are a correction.
	if err := st.Put("e", "a", element.Int(2), WithValidTime(5), WithEndValidTime(10)); err != nil {
		t.Fatal(err)
	}
	if f, _ := st.Find("e", "a", AsOfValidTime(7)); f.Value.MustInt() != 2 {
		t.Error("retroactive insert before existing version")
	}
}

func assertBitemporalEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wf, gf := want.allRecordsAt(want.clock.now()), got.allRecordsAt(got.clock.now())
	if len(wf) != len(gf) {
		t.Fatalf("record count: want %d got %d", len(wf), len(gf))
	}
	for i := range wf {
		if wf[i].Entity != gf[i].Entity || wf[i].Attribute != gf[i].Attribute ||
			!wf[i].Value.Equal(gf[i].Value) || wf[i].Validity != gf[i].Validity ||
			wf[i].RecordedAt != gf[i].RecordedAt || wf[i].SupersededAt != gf[i].SupersededAt ||
			wf[i].Derived != gf[i].Derived || wf[i].Source != gf[i].Source {
			t.Fatalf("record %d: want %v (tx [%d, %d)) got %v (tx [%d, %d))",
				i, wf[i], wf[i].RecordedAt, wf[i].BeliefEnd(), gf[i], gf[i].RecordedAt, gf[i].BeliefEnd())
		}
	}
}
