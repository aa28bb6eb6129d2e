package state

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestSnapshotPinsBelief is the snapshot-pinning contract: a handle taken
// before a retroactive correction still returns the pre-correction
// belief, for point reads, scans, and the serialized cut alike.
func TestSnapshotPinsBelief(t *testing.T) {
	st := NewStore()
	if err := st.Put("ann", "position", element.String("hall"),
		WithValidTime(10), WithTransactionTime(10)); err != nil {
		t.Fatal(err)
	}

	snap := st.Snapshot()
	if snap.At() != 10 {
		t.Fatalf("pin at %v, want 10", snap.At())
	}

	// Retroactive correction recorded after the pin: ann was in the vault
	// over [12, 18) all along — but the handle must not believe it.
	if err := st.Put("ann", "position", element.String("vault"),
		WithValidTime(12), WithEndValidTime(18)); err != nil {
		t.Fatal(err)
	}

	if f, ok := st.Find("ann", "position", AsOfValidTime(15)); !ok || f.Value.MustString() != "vault" {
		t.Fatalf("live store should believe the correction, got %v", f)
	}
	if f, ok := snap.Find("ann", "position", AsOfValidTime(15)); !ok || f.Value.MustString() != "hall" {
		t.Fatalf("pinned handle leaked the correction: %v", f)
	}
	if got := snap.List(WithAttribute("position"), AsOfValidTime(15)); len(got) != 1 || got[0].Value.MustString() != "hall" {
		t.Fatalf("pinned List leaked the correction: %v", got)
	}
	if got := snap.List(AllVersions()); len(got) != 1 || !got[0].IsCurrent() {
		t.Fatalf("pinned AllVersions List: %v", got)
	}
	pinned := AsOfTransactionTime(snap.At())
	if got := st.History("ann", "position", pinned); len(got) != 1 || got[0].Validity != temporal.Since(10) {
		t.Fatalf("pinned History: %v", got)
	}
	// AllVersions at the pin is the cut's audit trail: only the records
	// recorded by the pin, with post-pin supersessions undone — while the
	// live store's trail carries the correction and remnants.
	if got := st.History("ann", "position", AllVersions(), pinned); len(got) != 1 || got[0].Superseded() {
		t.Fatalf("pinned AllVersions history: %v", got)
	}
	if got := st.History("ann", "position", AllVersions()); len(got) != 4 {
		t.Fatalf("live AllVersions history: %d records, want 4", len(got))
	}

	// An explicit SYSTEM TIME deeper in the past composes; one past the
	// pin clamps to the pin.
	if _, ok := snap.Find("ann", "position", AsOfTransactionTime(5)); ok {
		t.Error("belief before the first write should be empty")
	}
	if f, ok := snap.Find("ann", "position", AsOfValidTime(15), AsOfTransactionTime(temporal.Forever-1)); !ok || f.Value.MustString() != "hall" {
		t.Fatalf("future systime must clamp to the pin, got %v", f)
	}

	// The serialized cut is the pre-correction belief: the dump taken
	// after the correction matches one taken before it.
	pre := NewStore()
	if err := pre.Put("ann", "position", element.String("hall"),
		WithValidTime(10), WithTransactionTime(10)); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := pre.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("serialized cut leaked the correction")
	}
}

// TestSnapshotCutIsImmutableUnderWrites re-reads one handle across a
// stream of later default-clock writes: every re-read must render the
// identical cut.
func TestSnapshotCutIsImmutableUnderWrites(t *testing.T) {
	st := NewStore()
	for i := 0; i < 64; i++ {
		if err := st.Put(fmt.Sprintf("e%02d", i%16), "v", element.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Snapshot()
	before := fmt.Sprint(snap.List(WithAttribute("v")))
	for i := 0; i < 64; i++ {
		if err := st.Put(fmt.Sprintf("e%02d", i%16), "v", element.Int(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(fmt.Sprintf("e%02d", (i+7)%16), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if after := fmt.Sprint(snap.List(WithAttribute("v"))); after != before {
		t.Fatalf("pinned cut changed under writes:\nbefore %s\nafter  %s", before, after)
	}
}

// TestFindOutOfOrderTransactionTimes pins the !txOrdered fallback of the
// belief-pinned read path: with explicit out-of-order transaction times,
// more than one current-shaped version can be visible at a historical
// instant, so the read must resolve by latest RecordedAt — the live
// fast path is only sound for tx-ordered lineages (or pins at/after
// every write).
func TestFindOutOfOrderTransactionTimes(t *testing.T) {
	st := NewStore()
	if err := st.Put("k", "a", element.Int(1), WithValidTime(1), WithTransactionTime(10)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", "a", element.Int(2), WithValidTime(1), WithEndValidTime(50),
		WithTransactionTime(30)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order: recorded at 5, AFTER the tx-30 write.
	if err := st.Put("k", "a", element.Int(3), WithValidTime(1), WithTransactionTime(5)); err != nil {
		t.Fatal(err)
	}
	// Current belief: the last write wins.
	if f, ok := st.Find("k", "a"); !ok || f.Value.MustInt() != 3 {
		t.Fatalf("current belief: %v %v", f, ok)
	}
	// Belief at 15: both the tx-10 and tx-5 versions are visible and
	// current-shaped; the latest-recorded one (tx 10) is the belief.
	if f, ok := st.Find("k", "a", AsOfTransactionTime(15)); !ok || f.Value.MustInt() != 1 {
		t.Fatalf("belief at 15: %v %v", f, ok)
	}
	// A pin at or after every write may use the live resolution.
	if f, ok := st.Find("k", "a", AsOfTransactionTime(40)); !ok || f.Value.MustInt() != 3 {
		t.Fatalf("belief at 40: %v %v", f, ok)
	}
}
