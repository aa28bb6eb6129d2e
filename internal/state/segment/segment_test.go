package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/state"
	"repro/internal/temporal"
)

// snapshotBytes serializes a store's full bitemporal cut — the
// byte-identical comparison surface of the recovery tests.
func snapshotBytes(t *testing.T, s *state.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// mutate drives one deterministic mutation mix — default-clock puts,
// retroactive corrections, bounded intervals, deletes, batch group
// commits — against any StateDB-with-batch surface (*state.Store is one
// directly). Running it against the durable store and a WAL-only oracle
// store yields identical bitemporal state.
type batchStore interface {
	state.StateDB
	PutBatch([]state.BatchPut) error
}

// storeBatch adapts the durable store (PutBatch through Mem).
type storeBatch struct {
	*Store
}

func (s storeBatch) PutBatch(puts []state.BatchPut) error { return s.Mem().PutBatch(puts) }

func mutate(t *testing.T, db batchStore, round int) {
	t.Helper()
	base := temporal.Instant(round * 1000)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i%10)
		if err := db.Put(key, "value", element.Int(int64(round*100+i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Retroactive corrections with explicit transaction times.
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := db.Put(key, "audit", element.String("fix"),
			state.WithValidTime(base+temporal.Instant(i)),
			state.WithEndValidTime(base+temporal.Instant(i)+10)); err != nil {
			t.Fatalf("retro put: %v", err)
		}
	}
	if err := db.Delete("k03", "value"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	var puts []state.BatchPut
	for i := 0; i < 20; i++ {
		puts = append(puts, state.BatchPut{
			Entity: fmt.Sprintf("b%02d", i%7), Attr: "batch",
			Value: element.Int(int64(i)), At: base + 500 + temporal.Instant(i),
		})
	}
	if err := db.PutBatch(puts); err != nil {
		t.Fatalf("putbatch: %v", err)
	}
}

// oracle replays the full-WAL history of the given mutation rounds.
func oracle(t *testing.T, rounds int) *state.Store {
	t.Helper()
	return walOracle(t, func(db *state.Store) {
		for r := 0; r < rounds; r++ {
			mutate(t, db, r)
		}
	})
}

// walOracle runs fill against a plain store logging to its own WAL chain
// — never truncated, since no flush ever cuts it — and returns a fresh
// store recovered from that chain by full replay from MinInstant.
func walOracle(t *testing.T, fill func(*state.Store)) *state.Store {
	t.Helper()
	dir := t.TempDir()
	st := state.NewStore()
	l, _, err := state.RecoverWALDir(dir, st, temporal.MinInstant, 0)
	if err != nil {
		t.Fatalf("oracle log: %v", err)
	}
	st.AttachLog(l)
	fill(st)
	if err := l.Close(); err != nil {
		t.Fatalf("oracle log close: %v", err)
	}
	rec := state.NewStore()
	l2, _, err := state.RecoverWALDir(dir, rec, temporal.MinInstant, 0)
	if err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("oracle replay close: %v", err)
	}
	return rec
}

// TestRecoveryRoundTrip: a durable store flushed mid-history and
// reopened without Close (the crash path) recovers byte-identically to
// a full-WAL replay of the same mutations.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mutate(t, storeBatch{d}, 0)
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mutate(t, storeBatch{d}, 1) // WAL tail beyond the durable cut
	// Simulate a crash with a flushed prefix and a WAL tail: Abandon
	// releases the lock and descriptors without flushing.
	d.Abandon()

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	want := snapshotBytes(t, oracle(t, 2))
	got := snapshotBytes(t, rec.Mem())
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from WAL-only oracle (%d vs %d bytes)", len(got), len(want))
	}
	if info := rec.Info(); info.Segments == 0 || info.Frames == 0 {
		t.Fatalf("expected durable segments, got %+v", info)
	}
}

// TestRecoveryCleanClose: Close flushes everything; reopening finds an
// empty WAL tail and the oracle's exact state.
func TestRecoveryCleanClose(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mutate(t, storeBatch{d}, 0)
	mutate(t, storeBatch{d}, 1)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if info := rec.Info(); info.WALRecords != 0 {
		t.Fatalf("WAL tail should be empty after clean close, got %+v", info)
	}
	if got, want := snapshotBytes(t, rec.Mem()), snapshotBytes(t, oracle(t, 2)); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from oracle")
	}
}

// TestRecoveryIncrementalFlush: a second flush writes only the lineages
// touched since the first, and a flush covering every key of an old
// segment retires the old file.
func TestRecoveryIncrementalFlush(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	db := d.Mem()
	for i := 0; i < 8; i++ {
		if err := db.Put(fmt.Sprintf("s%d", i), "v", element.Int(int64(i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	// Touch a single key; the second segment must hold only it.
	if err := db.Put("s0", "v", element.Int(100)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	cat := d.cat.Load()
	if len(cat.segments) != 2 {
		t.Fatalf("want 2 live segments, got %d", len(cat.segments))
	}
	last := cat.segments[len(cat.segments)-1]
	if len(last.index) != 1 {
		t.Fatalf("incremental segment should hold 1 key, holds %d", len(last.index))
	}

	// Touch every key: the next flush supersedes both older segments.
	for i := 0; i < 8; i++ {
		if err := db.Put(fmt.Sprintf("s%d", i), "v", element.Int(int64(200+i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	old := make([]string, 0, 2)
	for _, r := range cat.segments {
		old = append(old, r.path)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush 3: %v", err)
	}
	if got := len(d.cat.Load().segments); got != 1 {
		t.Fatalf("want 1 live segment after full rewrite, got %d", got)
	}
	for _, p := range old {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("superseded segment %s not unlinked", p)
		}
	}
}

// TestRecoveryTornWALTail: a WAL cut mid-record (the bytes a crash left
// half-appended) recovers to the last whole record — the durable
// prefix — and the torn bytes are compacted away.
func TestRecoveryTornWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db := d.Mem()
	for i := 0; i < 10; i++ {
		if err := db.Put("k", "v", element.Int(int64(i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	wal := filepath.Join(dir, "wal.00000001") // the chain's first (active) file
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	before := st.Size()
	if err := db.Put("k", "v", element.Int(99)); err != nil {
		t.Fatalf("final put: %v", err)
	}
	st, _ = os.Stat(wal)
	d.Abandon()
	// Cut inside the final record: a torn append.
	if err := os.Truncate(wal, (before+st.Size())/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer rec.Close()
	f, ok := rec.Find("k", "v")
	if !ok || f.Value.String() != "9" {
		t.Fatalf("want last whole record value 9, got %v (ok=%v)", f, ok)
	}
	if got := rec.Info().WALRecords; got != 10 {
		t.Fatalf("compacted WAL should hold 10 whole records, holds %d", got)
	}
}

// TestRecoveryOrphanSegment: a torn segment file a crash left behind —
// never referenced by the manifest — is removed at open and does not
// perturb recovery.
func TestRecoveryOrphanSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db := d.Mem()
	if err := db.Put("k", "v", element.Int(7)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Fabricate a torn segment: the valid prefix of a real one.
	src, err := os.ReadFile(filepath.Join(dir, "seg-00000001.seg"))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	orphan := filepath.Join(dir, "seg-99999999.seg")
	if err := os.WriteFile(orphan, src[:len(src)/2], 0o644); err != nil {
		t.Fatalf("write orphan: %v", err)
	}
	d.Abandon()

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with orphan: %v", err)
	}
	defer rec.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan segment not removed")
	}
	if f, ok := rec.Find("k", "v"); !ok || f.Value.String() != "7" {
		t.Fatalf("state perturbed by orphan: %v ok=%v", f, ok)
	}
}

// TestRecoveryCorruptSegment: bit rot in a manifest-referenced segment
// fails open loudly — it is corruption, not a crash artifact.
func TestRecoveryCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.Mem().Put("k", "v", element.Int(7)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	seg := filepath.Join(dir, "seg-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(fileMagic)+frame.HeaderLen+3] ^= 0xff // flip a payload byte
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write corrupt segment: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatalf("open should fail on a corrupt referenced segment")
	}
}

// TestRecoveryFallthroughReads: a lineage evicted from RAM keeps
// answering point reads and history from its durable frame.
func TestRecoveryFallthroughReads(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	db := d.Mem()
	// A fully bounded lineage: no open version for current reads.
	if err := db.Put("old", "v", element.Int(1),
		state.WithValidTime(10), state.WithEndValidTime(20),
		state.WithTransactionTime(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.FlushAt(50); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Written after the flush, so eviction must keep it resident.
	if err := db.Put("live", "v", element.Int(2),
		state.WithValidTime(10), state.WithTransactionTime(60)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if n := d.EvictToBudget(0); n != 1 {
		t.Fatalf("evicted %d lineages, want 1", n)
	}
	if !evicted(d.Mem(), "old", "v") {
		t.Fatalf("lineage should be gone from RAM")
	}
	// RAM misses; the frame answers.
	f, ok := d.Find("old", "v", state.AsOfValidTime(15))
	if !ok || f.Value.String() != "1" {
		t.Fatalf("fallthrough find failed: %v ok=%v", f, ok)
	}
	if hist := d.History("old", "v", state.AllVersions()); len(hist) != 1 {
		t.Fatalf("fallthrough history: want 1 record, got %d", len(hist))
	}
	// Envelope pruning: an instant outside the frame's validity span
	// misses without a pread.
	if _, ok := d.Find("old", "v", state.AsOfValidTime(5)); ok {
		t.Fatalf("pruned read should miss")
	}
	if _, ok := d.Find("old", "v"); ok {
		t.Fatalf("current-belief read should miss a fully bounded frame")
	}
	// The live lineage still resolves from RAM.
	if f, ok := d.Find("live", "v"); !ok || f.Value.String() != "2" {
		t.Fatalf("RAM read broken: %v ok=%v", f, ok)
	}
}

// TestRecoveryHistoryFallthroughBoundedSegment: History must fall
// through to a frame even when the owning segment holds no open
// validity anywhere — the open-version envelope prune applies to
// current-belief point reads only.
func TestRecoveryHistoryFallthroughBoundedSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	// The only record in the segment is fully bounded.
	if err := d.Mem().Put("e", "a", element.Int(1),
		state.WithValidTime(10), state.WithEndValidTime(20),
		state.WithTransactionTime(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.FlushAt(50); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := d.EvictToBudget(0); n != 1 {
		t.Fatalf("evicted %d lineages, want 1", n)
	}
	if !evicted(d.Mem(), "e", "a") {
		t.Fatalf("lineage should be gone from RAM")
	}
	if hist := d.History("e", "a"); len(hist) != 1 {
		t.Fatalf("default History via frame: want 1 closed record, got %d", len(hist))
	}
	if hist := d.History("e", "a", state.AllVersions()); len(hist) != 1 {
		t.Fatalf("AllVersions History via frame: want 1 record, got %d", len(hist))
	}
	// The current-belief point read still prunes correctly: nothing open.
	if _, ok := d.Find("e", "a"); ok {
		t.Fatalf("current-belief read should miss a fully bounded frame")
	}
}

// TestRecoveryCloseIdempotent: the `defer Close` + explicit Close
// pattern must not report a spurious error on the second call.
func TestRecoveryCloseIdempotent(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.Mem().Put("k", "v", element.Int(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close should be a no-op, got: %v", err)
	}
}

// TestRecoveryNoFrameResurrection: a lineage still resident in RAM
// answers from RAM alone — a frame flushed before a delete must not
// resurrect the deleted fact through the fallthrough path.
func TestRecoveryNoFrameResurrection(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	db := d.Mem()
	if err := db.Put("k", "v", element.Int(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Delete after the flush: the frame still holds the open version.
	if err := db.Delete("k", "v"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if f, ok := d.Find("k", "v"); ok {
		t.Fatalf("deleted fact resurrected from stale frame: %v", f)
	}
	// The pre-delete belief is still reachable the bitemporal way.
	if _, ok := d.Find("k", "v", state.AsOfTransactionTime(d.DurableTx())); !ok {
		t.Fatalf("pre-delete belief should resolve from RAM history")
	}
}

// TestRecoverySweptDirectory opens testdata/swept-v3, a directory written
// while RAM compaction existed: "old" (bounded, two records) was swept
// from RAM with its frame kept, so the manifest lists it under Swept;
// "gone" was deleted from its first valid instant and swept to a
// tombstone frame; "live" stayed resident. The manifest's key sets are
// no longer read, so with no residency budget "old" loads resident from
// its frame, which holds its whole history. The expected rows are what
// the reader of that era returned for the same directory; the one
// change is the write at the end, which now extends the frame's history
// instead of starting a fresh lineage.
func TestRecoverySweptDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "swept-v3"))); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	rows := func(fs ...*element.Fact) string {
		var b strings.Builder
		for _, f := range fs {
			sup := "inf"
			if end := f.BeliefEnd(); end != temporal.Forever {
				sup = fmt.Sprint(int64(end))
			}
			valid := "inf"
			if f.Validity.End != temporal.Forever {
				valid = fmt.Sprint(int64(f.Validity.End))
			}
			fmt.Fprintf(&b, "%s=%s [%d,%s) rec=%d sup=%s; ", f.Entity, f.Value,
				int64(f.Validity.Start), valid, int64(f.RecordedAt), sup)
		}
		return b.String()
	}
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}

	// Two resident lineages, old and live, mean the tombstoned gone was
	// not loaded.
	if info := d.Info(); info.EvictedLineages != 0 || info.ResidentLineages != 2 {
		t.Fatalf("want nothing evicted and old and live resident, got %+v", info)
	}
	f, ok := d.Find("old", "v", state.AsOfValidTime(15))
	if !ok {
		t.Fatalf("swept key: valid-time read missed")
	}
	same("Find", rows(f), "old=2 [10,20) rec=15 sup=inf; ")
	if _, ok := d.Find("old", "v"); ok {
		t.Fatalf("bounded swept key answered a current read")
	}
	same("History", rows(d.History("old", "v", state.AllVersions())...),
		"old=1 [10,20) rec=10 sup=15; old=2 [10,20) rec=15 sup=inf; ")
	same("List", rows(d.List(state.AsOfValidTime(15))...),
		"live=4 [10,inf) rec=10 sup=inf; old=2 [10,20) rec=15 sup=inf; ")

	if _, ok := d.Find("gone", "v", state.AsOfValidTime(15)); ok {
		t.Fatalf("tombstoned key answered a read")
	}
	if hist := d.History("gone", "v", state.AllVersions()); len(hist) != 0 {
		t.Fatalf("tombstoned key has history: %v", hist)
	}

	// The fixture predates per-frame value envelopes and open values: its
	// frames decode with no envelope and an unknown open value, so a
	// value-bounded scan reads "old" rather than pruning it, and answers
	// exactly as the unbounded scan filtered. No bounds the segments'
	// own envelopes admit prune a frame on a current read, though "old"
	// has no open version and "gone" is a tombstone.
	var keys []element.FactKey
	for _, r := range d.cat.Load().segments {
		for key, ref := range r.index {
			if ref.Numeric || ref.Open.Kind != state.OpenUnknown {
				t.Fatalf("%s: pre-envelope frame %s decoded with a summary %+v", r.path, key, ref)
			}
			if !slices.Contains(keys, key) {
				keys = append(keys, key)
			}
		}
	}
	all := d.ColdFrames(nil, d.ResolveCold(keys), state.ScanShape{}, state.ValueBounds{})
	for _, b := range []state.ValueBounds{{Min: 3, HasMin: true}, {Max: 4, HasMax: true, MaxExcl: true}} {
		for _, r := range d.cat.Load().segments {
			if r.vNumeric && b.Excludes(r.vMin, r.vMax) {
				t.Fatalf("%s: bounds %+v exclude the segment envelope: pick bounds it admits", r.path, b)
			}
		}
		for _, shape := range []state.ScanShape{{}, {TxAt: temporal.Forever, HasTxAt: true}} {
			if got := d.ColdFrames(nil, d.ResolveCold(keys), shape, b); len(got) != len(all) {
				t.Fatalf("current read %+v with bounds %+v pruned pre-summary frames: %d of %d left", shape, b, len(got), len(all))
			}
		}
	}
	sn := d.Mem().Snapshot()
	for _, b := range []state.ValueBounds{
		{Min: 1.5, HasMin: true},
		{Min: 1, HasMin: true, MinExcl: true, Max: 4, HasMax: true, MaxExcl: true},
		{Max: 1, HasMax: true},
		{Min: 5, HasMin: true},
	} {
		keep := keepBounds(b)
		for _, opts := range [][]state.ReadOpt{{state.AsOfValidTime(15)}, {state.AllVersions()}} {
			want := filterFacts(sn.List(opts...), keep)
			got, _ := sn.ScanPartitioned(state.ScanSpec{Opts: opts, Bounds: b, Keep: keep})
			same(fmt.Sprintf("bounded scan %+v", b), rows(got...), rows(want...))
		}
	}

	// The behaviour change: the new record joins the swept history
	// instead of replacing it.
	if err := d.Put("old", "v", element.Int(5),
		state.WithValidTime(30), state.WithTransactionTime(80)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if evicted(d.Mem(), "old", "v") || d.Info().EvictedLineages != 0 {
		t.Fatalf("write left the swept key evicted")
	}
	same("History after write", rows(d.History("old", "v", state.AllVersions())...),
		"old=1 [10,20) rec=10 sup=15; old=2 [10,20) rec=15 sup=inf; old=5 [30,inf) rec=80 sup=inf; ")
}

// TestRecoveryAdvancesCutWithoutDirt: flushing a quiesced store advances
// the durable cut without writing an empty segment file.
func TestRecoveryAdvancesCutWithoutDirt(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	if err := d.Mem().Put("k", "v", element.Int(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	segs := d.Info().Segments
	d.Mem().AdvanceClock(1000)
	if err := d.Flush(); err != nil {
		t.Fatalf("idle flush: %v", err)
	}
	if got := d.Info().Segments; got != segs {
		t.Fatalf("idle flush wrote a segment: %d -> %d", segs, got)
	}
	if got := d.DurableTx(); got != 1000 {
		t.Fatalf("durable cut not advanced: %v", got)
	}
}
