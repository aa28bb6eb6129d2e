package state

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// openWAL starts a WAL chain in a fresh temp dir and attaches it to s.
// It returns the log and the directory, for recoverWAL.
func openWAL(t *testing.T, s *Store) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := RecoverWALDir(dir, s, temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachLog(l)
	return l, dir
}

// recoverWAL replays the whole (never truncated) WAL chain in dir into a
// fresh store — the oracle every round-trip test compares against. The
// writer's log must be closed first. It returns the store and the number
// of records replayed.
func recoverWAL(t *testing.T, dir string) (*Store, int) {
	t.Helper()
	s := NewStore()
	l, n, err := RecoverWALDir(dir, s, temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return s, n
}

// closeWAL closes l, failing the test on error.
func closeWAL(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// putDerived writes a version marked reasoner-derived, as replaying a
// WAL record with that provenance does; no write option sets the mark.
func putDerived(t *testing.T, s *Store, e, a string, v element.Value, valid temporal.Interval, tx temporal.Instant, source string) {
	t.Helper()
	if err := s.apply(writeReq{
		entity: e, attr: a, value: v,
		validFrom: valid.Start, hasValidFrom: true, validTo: valid.End, hasValidTo: true,
		tx: tx, hasTx: true, derived: true, source: source,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLogReplayRoundTrip(t *testing.T) {
	s := NewStore()
	l, dir := openWAL(t, s)

	s.Replace("ann", "position", element.String("hall"), 10)
	s.Replace("ann", "position", element.String("lab"), 20)
	s.Delete("ann", "position", WithValidTime(30), WithTransactionTime(30))
	putDerived(t, s, "p1", "class", element.String("books"), temporal.NewInterval(0, 50), 31, "taxonomy")
	closeWAL(t, l)

	restored, n := recoverWAL(t, dir)
	if n != 4 {
		t.Fatalf("replayed %d records", n)
	}
	assertStoresEqual(t, s, restored)
	got, ok := restored.Find("p1", "class", AsOfValidTime(10))
	if !ok || !got.Derived || got.Source != "taxonomy" {
		t.Fatalf("derived metadata lost: %v", got)
	}
}

func TestLogFileRoundTrip(t *testing.T) {
	s := NewStore()
	l, dir := openWAL(t, s)
	s.Replace("e", "a", element.Int(42), 7)
	if l.Len() != 1 {
		t.Errorf("log length: %d", l.Len())
	}
	if l.Files() != 1 {
		t.Errorf("log files: %d", l.Files())
	}
	closeWAL(t, l)
	restored, _ := recoverWAL(t, dir)
	if f, ok := restored.Find("e", "a"); !ok || f.Value.MustInt() != 42 {
		t.Fatalf("restored: %v %v", f, ok)
	}
	if _, _, err := RecoverWALDir(filepath.Join(dir, "missing"), NewStore(), temporal.MinInstant, 0); err == nil {
		t.Error("missing directory should error")
	}
}

// TestReplayCorruptLog: garbage in a sealed chain member is corruption,
// not a torn tail, and fails recovery.
func TestReplayCorruptLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName(1)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0); err == nil {
		t.Error("corrupt log should error")
	}
}

// TestSnapshotRoundTrip: the cut dump of a WAL-recovered store is
// byte-identical to the original's.
func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	l, dir := openWAL(t, s)
	for i := int64(0); i < 20; i++ {
		s.Replace("e", "a", element.Int(i), temporal.Instant(i))
	}
	s.Replace("x", "b", element.Float(2.5), 3)
	s.Delete("x", "b", WithValidTime(9), WithTransactionTime(9))
	closeWAL(t, l)

	restored, _ := recoverWAL(t, dir)
	assertStoresEqual(t, s, restored)
	var want, got bytes.Buffer
	if err := s.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("recovered store dumps a different cut")
	}
}

// TestSnapshotPlusLogSuffixRecovery is the segment handoff in miniature:
// a store already holding the state up to a durable cut replays only
// the WAL records after it.
func TestSnapshotPlusLogSuffixRecovery(t *testing.T) {
	s := NewStore()
	l, dir := openWAL(t, s)
	s.Replace("e", "a", element.Int(1), 0)
	s.Replace("e", "a", element.Int(2), 10)
	s.Replace("e", "a", element.Int(3), 20)
	s.Replace("f", "a", element.Int(9), 25)
	closeWAL(t, l)

	restored := NewStore()
	restored.Replace("e", "a", element.Int(1), 0)
	restored.Replace("e", "a", element.Int(2), 10)
	l2, n, err := RecoverWALDir(dir, restored, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	closeWAL(t, l2)
	if n != 2 {
		t.Fatalf("replayed %d suffix records, want 2", n)
	}
	assertStoresEqual(t, s, restored)
}

func TestLogReplayRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		s := NewStore()
		l, dir := openWAL(t, s)
		clock := map[string]temporal.Instant{}
		for op := 0; op < 200; op++ {
			e := string(rune('a' + rng.Intn(5)))
			at := clock[e] + temporal.Instant(1+rng.Intn(10))
			clock[e] = at
			switch rng.Intn(3) {
			case 0, 1:
				s.Replace(e, "v", element.Int(rng.Int63n(1000)), at)
			case 2:
				s.Delete(e, "v", WithValidTime(at), WithTransactionTime(at))
			}
		}
		closeWAL(t, l)
		restored, _ := recoverWAL(t, dir)
		assertStoresEqual(t, s, restored)
	}
}

func TestNoLogOnFailedMutation(t *testing.T) {
	s := NewStore()
	l, _ := openWAL(t, s)
	defer closeWAL(t, l)
	s.Replace("e", "a", element.Int(1), 10)
	if err := s.Replace("e", "a", element.Int(2), 5); err == nil {
		t.Fatal("out-of-order replace: expected error")
	}
	if err := s.Put("e", "a", element.Int(3), WithValidTime(20), WithEndValidTime(20)); err == nil {
		t.Fatal("empty validity: expected error")
	}
	if err := s.Delete("nope", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("e", "a", WithValidTime(0), WithEndValidTime(5)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Errorf("failed and no-op mutations must not be logged: %d records", l.Len())
	}
}

func assertStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wf, gf := want.Scan(nil), got.Scan(nil)
	if len(wf) != len(gf) {
		t.Fatalf("fact count: want %d got %d", len(wf), len(gf))
	}
	for i := range wf {
		if wf[i].Entity != gf[i].Entity || wf[i].Attribute != gf[i].Attribute ||
			!wf[i].Value.Equal(gf[i].Value) || wf[i].Validity != gf[i].Validity ||
			wf[i].Derived != gf[i].Derived || wf[i].Source != gf[i].Source {
			t.Fatalf("fact %d: want %v got %v", i, wf[i], gf[i])
		}
	}
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }
