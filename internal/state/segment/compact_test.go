package segment

// Compaction suite: leveled segment merges, victim selection, tombstone
// reclaim, and the chaos schedules that kill a merge at every
// commit-protocol stage. State comparisons follow the recovery suite's
// rule — byte-equality of the recovered snapshot against a no-fault
// oracle of the same mutation schedule.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

// putRound writes a round of keys with partial overlap: eight keys
// unique to the round (so every flushed segment keeps live frames and
// chains of equal-level segments actually accumulate — fully
// overlapping rounds would let the flush path drop dead predecessors
// outright) plus four shared keys rewritten every round (so older
// segments carry dead frames for merges to reclaim).
func putRound(t *testing.T, db batchStore, r int) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := db.Put(fmt.Sprintf("r%d-k%02d", r, i), "v", element.Int(int64(r*100+i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := db.Put(fmt.Sprintf("shared-k%02d", i), "v", element.Int(int64(r*10+i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
}

// buildChain flushes `rounds` putRound rounds into their own level-0
// segments.
func buildChain(t *testing.T, d *Store, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		putRound(t, storeBatch{d}, r)
		if err := d.Flush(); err != nil {
			t.Fatalf("flush round %d: %v", r, err)
		}
	}
}

// TestCompactMergesChain: the operator verb merges the whole chain into
// one segment a level up, reclaiming every superseded duplicate, and a
// crash-restart of the merged directory recovers the exact pre-crash
// cut.
func TestCompactMergesChain(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	buildChain(t, d, 3)

	info := d.Info()
	if info.Segments != 3 {
		t.Fatalf("want 3 level-0 segments, got %+v", info)
	}
	if len(info.SegmentsPerLevel) != 1 || info.SegmentsPerLevel[0] != 3 {
		t.Fatalf("want [3] per level, got %v", info.SegmentsPerLevel)
	}
	// 12 frames per segment; the shared keys' older frames are dead.
	if info.FrameSlots != 36 || info.Frames != 28 {
		t.Fatalf("want 36 slots / 28 live frames, got %d / %d", info.FrameSlots, info.Frames)
	}

	if err := d.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	info = d.Info()
	if info.Merges != 1 || info.CompactionFailures != 0 {
		t.Fatalf("want exactly one clean merge, got %+v", info)
	}
	if info.Segments != 1 || len(info.SegmentsPerLevel) != 2 || info.SegmentsPerLevel[1] != 1 {
		t.Fatalf("want one level-1 segment, got %+v", info)
	}
	if info.Frames != 28 || info.FrameSlots != 28 {
		t.Fatalf("merge left garbage: %d slots / %d frames", info.FrameSlots, info.Frames)
	}
	if info.MergeBytesReclaimed <= 0 {
		t.Fatalf("merge reclaimed %d bytes", info.MergeBytesReclaimed)
	}

	want := snapshotBytes(t, d.Mem())
	d.Abandon()
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("merged directory recovered differently (%d vs %d bytes)", len(got), len(want))
	}
	if ri := rec.Info(); ri.Segments != 1 || ri.Frames != 28 {
		t.Fatalf("recovered catalog differs: %+v", ri)
	}
}

// TestCompactBackgroundViaPulse: once a contiguous run of equal-level
// segments reaches the fanout, the next pulse starts a background merge
// — no operator verb, no flush coupling.
func TestCompactBackgroundViaPulse(t *testing.T) {
	d, err := Open(t.TempDir(), WithCompactionFanout(2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	buildChain(t, d, 2)
	if got := d.Info().Segments; got != 2 {
		t.Fatalf("want 2 segments before the pulse, got %d", got)
	}

	d.Pulse(d.DurableTx()) // stale cut: no flush, but compaction may start
	d.Idle()
	if got := d.Info().Merges; got != 1 {
		t.Fatalf("want one background merge, got %d", got)
	}
	info := d.Info()
	if info.Segments != 1 || len(info.SegmentsPerLevel) != 2 || info.SegmentsPerLevel[1] != 1 {
		t.Fatalf("want one level-1 segment after the background merge, got %+v", info)
	}
	// A second pulse finds a single sub-fanout run: no further merge.
	d.Pulse(d.DurableTx())
	d.Idle()
	if got := d.Info().Merges; got != 1 {
		t.Fatalf("idle pulse started a merge: %d", got)
	}
	if f, ok := d.Find("shared-k00", "v"); !ok || f.Value.String() != "10" {
		t.Fatalf("read after background merge: %v ok=%v", f, ok)
	}
}

// TestCompactGarbageRewrite: a single segment whose dead-frame share
// crosses the garbage threshold is rewritten in place at its own level,
// reclaiming the dead frames without touching its neighbors.
func TestCompactGarbageRewrite(t *testing.T) {
	dir := t.TempDir()
	// A huge fanout disables run merging: only the garbage path can fire.
	d, err := Open(dir, WithCompactionFanout(100))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db := storeBatch{d}
	for i := 0; i < 8; i++ {
		if err := db.Put(fmt.Sprintf("k%02d", i), "v", element.Int(int64(i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Rewrite six of eight keys: the first segment is now 75% dead.
	for i := 0; i < 6; i++ {
		if err := db.Put(fmt.Sprintf("k%02d", i), "v", element.Int(int64(100+i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if info := d.Info(); info.Segments != 2 || info.FrameSlots != 14 {
		t.Fatalf("setup: want 2 segments / 14 slots, got %+v", info)
	}

	d.Pulse(d.DurableTx())
	d.Idle()
	if got := d.Info().Merges; got != 1 {
		t.Fatalf("want one garbage rewrite, got %d", got)
	}
	info := d.Info()
	if info.Segments != 2 || info.FrameSlots != 8 || info.Frames != 8 {
		t.Fatalf("rewrite should leave 2 segments / 8 slots, got %+v", info)
	}
	if len(info.SegmentsPerLevel) != 1 || info.SegmentsPerLevel[0] != 2 {
		t.Fatalf("in-place rewrite must stay at level 0, got %v", info.SegmentsPerLevel)
	}
	if info.MergeBytesReclaimed <= 0 {
		t.Fatalf("rewrite reclaimed %d bytes", info.MergeBytesReclaimed)
	}

	want := snapshotBytes(t, d.Mem())
	d.Abandon()
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("rewritten directory recovered differently")
	}
}

// TestCompactTombstoneElision: a tombstone — an empty frame, written
// today only by directories from the RAM-compaction era — is reclaimed
// by a merge once no older segment holds anything for it to shadow,
// including the degenerate case where eliding every frame commits the
// victims away with no output segment at all.
func TestCompactTombstoneElision(t *testing.T) {
	// reopen crash-restarts d and requires gone to stay absent.
	reopen := func(t *testing.T, dir string, d *Store, gone string) *Store {
		t.Helper()
		d.Abandon()
		rec, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		t.Cleanup(func() { rec.Close() })
		if _, ok := rec.Find(gone, "v", state.AsOfValidTime(15)); ok {
			t.Fatalf("tombstoned key resurrected after restart")
		}
		if hist := rec.History(gone, "v", state.AllVersions()); len(hist) != 0 {
			t.Fatalf("tombstoned key kept history after restart: %v", hist)
		}
		return rec
	}

	t.Run("merge-elides-with-survivor", func(t *testing.T) {
		// swept-v3 holds gone's live frame in its first segment and the
		// tombstone that shadows it in the second, beside old and live.
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "swept-v3"))); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if info := d.Info(); info.Segments != 2 || info.FrameSlots != 4 || info.Frames != 3 {
			t.Fatalf("setup: want the tombstone beside the old frame, got %+v", info)
		}
		if err := d.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		info := d.Info()
		if info.Segments != 1 || info.FrameSlots != 2 || info.Frames != 2 {
			t.Fatalf("tombstone not elided: %+v", info)
		}
		if _, ok := d.Find("gone", "v", state.AsOfValidTime(15)); ok {
			t.Fatalf("tombstoned key resurrected by the merge")
		}
		rec := reopen(t, dir, d, "gone")
		if f, ok := rec.Find("old", "v", state.AsOfValidTime(15)); !ok || f.Value.String() != "2" {
			t.Fatalf("evicted survivor lost by the merge: %v ok=%v", f, ok)
		}
		if hist := rec.History("old", "v", state.AllVersions()); len(hist) != 2 {
			t.Fatalf("merge dropped a superseded belief: %v", hist)
		}
		if f, ok := rec.Find("live", "v"); !ok || f.Value.String() != "4" {
			t.Fatalf("resident survivor lost by the merge: %v ok=%v", f, ok)
		}
	})

	t.Run("merge-to-nothing", func(t *testing.T) {
		// A tombstone-only segment, committed through the manifest the
		// way a flush commits one.
		dir := t.TempDir()
		d, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		w, err := createSegment(d.fs, filepath.Join(dir, fmt.Sprintf("seg-%08d.seg", d.nextSeq)), 0, &d.scanFrames)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := w.writeLineage(element.FactKey{Entity: "k", Attribute: "v"}, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		r, err := w.finish(50)
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		d.nextSeq++
		if err := d.writeManifest(d.manifestFor(&catalog{durableTx: 50, segments: []*reader{r}}, nil)); err != nil {
			t.Fatalf("manifest: %v", err)
		}
		r.f.Close()
		d = reopen(t, dir, d, "k")
		if info := d.Info(); info.Segments != 1 || info.FrameSlots != 1 {
			t.Fatalf("setup: want one tombstone-only segment, got %+v", info)
		}
		if err := d.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if info := d.Info(); info.Segments != 0 || info.Merges != 1 {
			t.Fatalf("want an empty catalog after full reclaim, got %+v", info)
		}
		// The empty catalog survives a restart.
		if info := reopen(t, dir, d, "k").Info(); info.Segments != 0 {
			t.Fatalf("recovered catalog not empty: %+v", info)
		}
	})
}

// TestRecoveryResidencyAfterRestart: lineages evicted from RAM must stay
// durable-only across restarts: recovery must not reload them resident,
// while fallthrough reads — point reads AND scans, serial and
// partitioned — keep answering exactly as before the crash. The store
// has no budget, so only the manifest's evicted set and the recovered
// cold directory keep them out of RAM and in the scans.
func TestRecoveryResidencyAfterRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db := d.Mem()
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("cold-%d", i)
		if err := db.Put(keys[i], "v", element.Int(int64(i)),
			state.WithValidTime(10), state.WithEndValidTime(20),
			state.WithTransactionTime(temporal.Instant(10+i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.FlushAt(50); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := d.EvictToBudget(0); n != len(keys) {
		t.Fatalf("evicted %d lineages, want %d", n, len(keys))
	}
	if err := d.FlushAt(60); err != nil { // records the evicted set
		t.Fatalf("flush: %v", err)
	}
	for _, k := range keys {
		if !evicted(d.Mem(), k, "v") {
			t.Fatalf("%s still resident after eviction", k)
		}
	}
	assertColdSeam(t, d)

	// scans reads the three scan shapes the restarts must reproduce.
	scans := func(d *Store) [][]*element.Fact {
		return [][]*element.Fact{
			d.List(state.AsOfValidTime(15)),
			d.List(state.WithAttribute("v"), state.AllVersions()),
			d.Mem().Snapshot().ScanShards(4, state.WithAttribute("v"), state.AllVersions()),
		}
	}
	want := scans(d)
	if len(want[0]) != len(keys) {
		t.Fatalf("pre-crash ASOF scan sees %d evicted keys, want %d", len(want[0]), len(keys))
	}
	sameScans := func(leg string, d *Store) {
		t.Helper()
		for i, got := range scans(d) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: scan %d diverged from the pre-crash result:\ngot  %v\nwant %v", leg, i, got, want[i])
			}
		}
	}

	// Recovery must not reload the frames resident, which would undo the
	// eviction on every restart.
	d.Abandon()
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, k := range keys {
		if !evicted(rec.Mem(), k, "v") {
			t.Fatalf("recovery reloaded evicted lineage %s resident", k)
		}
		if f, ok := rec.Find(k, "v", state.AsOfValidTime(15)); !ok || f.Value.String() == "" {
			t.Fatalf("fallthrough read lost %s after restart", k)
		}
	}
	assertColdSeam(t, rec)
	sameScans("restart", rec)

	// The evicted set survives further flush generations too.
	if err := rec.Mem().Put("hot", "v", element.Int(1),
		state.WithValidTime(70), state.WithTransactionTime(70)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := rec.FlushAt(80); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want = scans(rec)
	rec.Abandon()
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer again.Close()
	for _, k := range keys {
		if !evicted(again.Mem(), k, "v") {
			t.Fatalf("evicted lineage %s resurfaced two generations later", k)
		}
	}
	if evicted(again.Mem(), "hot", "v") {
		t.Fatalf("live lineage must stay resident")
	}
	assertColdSeam(t, again)
	sameScans("second restart", again)
}

// TestFaultMergeCrash kills a merge at each commit-protocol stage and
// requires: the store never corrupts or degrades, victims stay
// readable, and a crash-restart recovers byte-identically to the
// pre-fault cut (the no-fault oracle — merge I/O never touches RAM).
func TestFaultMergeCrash(t *testing.T) {
	cases := []struct {
		name string
		rule vfs.Rule
		// committed reports whether the merge's manifest still lands on
		// disk despite the reported error (torn rename).
		committed bool
	}{
		{"build-write", vfs.Rule{Op: vfs.OpWrite, Path: "seg-*.seg", Count: 1,
			Err: errors.New("disk error")}, false},
		{"manifest-rename-error", vfs.Rule{Op: vfs.OpRename, Path: manifestName, Count: 1,
			Err: errors.New("rename failed")}, false},
		{"manifest-torn-rename", vfs.Rule{Op: vfs.OpRename, Path: manifestName, Count: 1,
			Err: errors.New("rename torn"), TornRename: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS)
			d, err := Open(dir, WithFS(ffs), WithRetryPolicy(fastRetry))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			buildChain(t, d, 3)
			want := snapshotBytes(t, d.Mem())

			// Arm the fault only after the chain is built, so it fires
			// inside the merge, not a flush.
			ffs.AddRule(tc.rule)
			if err := d.Compact(); err == nil {
				t.Fatalf("faulted merge must surface its error")
			}
			info := d.Info()
			if info.CompactionFailures != 1 || info.Merges != 0 {
				t.Fatalf("want one counted failure and no commit, got %+v", info)
			}
			if d.Degraded() != nil {
				t.Fatalf("a merge failure must never degrade the store")
			}
			// The in-RAM catalog still serves from the victims.
			if info.Segments != 3 {
				t.Fatalf("victim chain must survive the failed merge, got %+v", info)
			}
			if f, ok := d.Find("shared-k00", "v"); !ok || f.Value.String() != "20" {
				t.Fatalf("read after failed merge: %v ok=%v", f, ok)
			}

			// Crash and restart on the real filesystem.
			d.Abandon()
			rec, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			defer rec.Close()
			if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
				t.Fatalf("%s: recovered state differs from no-fault oracle", tc.name)
			}
			ri := rec.Info()
			if tc.committed {
				// The torn rename committed the merged manifest: the
				// restart serves from the merged segment, victims are
				// swept as orphans.
				if ri.Segments != 1 {
					t.Fatalf("torn-rename restart should adopt the merged chain, got %+v", ri)
				}
			} else if ri.Segments != 3 {
				t.Fatalf("restart should keep the victim chain, got %+v", ri)
			}
		})
	}
}

// TestFaultCloseInterruptsMerge: Close must interrupt an in-flight
// rate-limited merge instead of waiting out its schedule, and the
// aborted build's partial output must not survive as state — the next
// open removes the orphan and recovers the pre-merge cut.
func TestFaultCloseInterruptsMerge(t *testing.T) {
	dir := t.TempDir()
	fsys := newCreatedFS("seg-00000003.seg") // the merge's output
	d, err := Open(dir, WithCompactionFanout(2), WithFS(fsys))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	buildChain(t, d, 2)
	// One byte per second: the build throttles immediately and can only
	// finish by being interrupted. Set before the first pulse, the only
	// thing that starts a merge.
	d.compactRate = 1
	want := snapshotBytes(t, d.Mem())

	d.Pulse(d.DurableTx())
	fsys.wait(t)
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("close waited out the merge throttle: %v", elapsed)
	}

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("interrupted merge changed recovered state")
	}
	if info := rec.Info(); info.Segments != 2 || info.Merges != 0 {
		t.Fatalf("interrupted merge must leave the victim chain, got %+v", info)
	}
}

// TestFaultKillDuringWALRotation: crashes and create faults around WAL
// rotation must never lose acknowledged writes — recovery replays the
// whole file chain against the oracle.
func TestFaultKillDuringWALRotation(t *testing.T) {
	t.Run("crash-mid-chain", func(t *testing.T) {
		dir := t.TempDir()
		d, err := Open(dir, WithWALRotateBytes(512))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		mutate(t, storeBatch{d}, 0)
		mutate(t, storeBatch{d}, 1)
		if files := d.Info().WALFiles; files < 2 {
			t.Fatalf("rotation never happened: %d files", files)
		}
		d.Abandon()

		rec, err := Open(dir, WithWALRotateBytes(512))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rec.Close()
		want := snapshotBytes(t, oracle(t, 2))
		if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
			t.Fatalf("chain recovery differs from WAL-only oracle")
		}
	})

	t.Run("rotation-create-fault", func(t *testing.T) {
		dir := t.TempDir()
		ffs := vfs.NewFaultFS(vfs.OS)
		// After:1 skips the chain file created at Open; the next two
		// creates are rotation attempts, which must fail soft (keep
		// appending to the oversized active file, retry later).
		ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "wal.*", After: 1, Count: 2,
			Err: errors.New("create failed")})
		d, err := Open(dir, WithFS(ffs), WithWALRotateBytes(512), WithRetryPolicy(fastRetry))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		mutate(t, storeBatch{d}, 0)
		if deg := d.Degraded(); deg != nil {
			t.Fatalf("a failed rotation must not degrade: %+v", deg)
		}
		mutate(t, storeBatch{d}, 1)
		if files := d.Info().WALFiles; files < 2 {
			t.Fatalf("rotation never recovered after the faults: %d files", files)
		}
		d.Abandon()

		rec, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rec.Close()
		want := snapshotBytes(t, oracle(t, 2))
		if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
			t.Fatalf("recovery after rotation faults differs from oracle")
		}
	})
}

// TestFuzzMergeVsFlatOracle: a seeded random interleaving of mutation
// rounds, flushes, merges, WAL rotations, and working-set evictions,
// crash-restarted and compared byte-for-byte against a flat
// never-truncated WAL replay of the same mutations. The eviction arms
// drop every fully-durable lineage from RAM mid-schedule, so later
// rounds exercise write fault-in and the recovery compares a store whose
// manifest carries a live evicted set.
func TestFuzzMergeVsFlatOracle(t *testing.T) {
	const rounds = 6
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	d, err := Open(dir, WithWALRotateBytes(2048), WithCompactionFanout(2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	d.Mem().SetAccessTracking(true)
	for r := 0; r < rounds; r++ {
		mutate(t, storeBatch{d}, r)
		putRound(t, storeBatch{d}, r)
		switch rng.Intn(5) {
		case 0:
			if err := d.Flush(); err != nil {
				t.Fatalf("round %d flush: %v", r, err)
			}
		case 1:
			if err := d.Flush(); err != nil {
				t.Fatalf("round %d flush: %v", r, err)
			}
			if err := d.Compact(); err != nil {
				t.Fatalf("round %d compact: %v", r, err)
			}
		case 2:
			if err := d.Flush(); err != nil {
				t.Fatalf("round %d flush: %v", r, err)
			}
			d.EvictToBudget(0)
			assertColdSeam(t, d)
		case 3:
			if err := d.Flush(); err != nil {
				t.Fatalf("round %d flush: %v", r, err)
			}
			if err := d.Compact(); err != nil {
				t.Fatalf("round %d compact: %v", r, err)
			}
			d.EvictToBudget(0)
			assertColdSeam(t, d)
		}
	}
	d.Abandon()

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()

	// The flat oracle: the identical mutation schedule against a plain
	// store with a never-truncated WAL chain, fully replayed.
	flat := walOracle(t, func(db *state.Store) {
		for r := 0; r < rounds; r++ {
			mutate(t, db, r)
			putRound(t, db, r)
		}
	})

	want := snapshotBytes(t, flat)
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("fuzzed merge/flush/rotation schedule diverged from the flat oracle (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSelectVictimsBytesAware pins the size-aware half of victim
// selection: levels budget bytes, not segment counts, so two huge flush
// segments compact as eagerly as a full fanout run of tiny ones — and a
// pair of tiny segments does not.
func TestSelectVictimsBytesAware(t *testing.T) {
	seg := func(size int64, level int) *reader {
		return &reader{size: size, level: level, index: map[element.FactKey]frameRef{}}
	}
	const fanout, levelBytes = 4, int64(8 << 20)

	// Two 10MB level-0 segments: 20MB >= levelBytes, ripe by bytes even
	// though the run is far short of the fanout count.
	huge := &catalog{segments: []*reader{seg(10<<20, 0), seg(10<<20, 0)}}
	if lo, hi, level := selectVictims(huge, fanout, 0.5, levelBytes); lo != 0 || hi != 2 || level != 1 {
		t.Fatalf("two huge segments not selected by bytes: lo=%d hi=%d level=%d", lo, hi, level)
	}

	// Two 1KB segments: same count, nowhere near the byte budget — a
	// tiny segment must no longer count the same as a huge one.
	tiny := &catalog{segments: []*reader{seg(1<<10, 0), seg(1<<10, 0)}}
	if lo, hi, _ := selectVictims(tiny, fanout, 0.5, levelBytes); lo != hi {
		t.Fatalf("two tiny segments selected by bytes: lo=%d hi=%d", lo, hi)
	}

	// The count trigger still stands on its own: fanout tiny segments
	// are ripe regardless of bytes.
	run := &catalog{segments: []*reader{seg(1<<10, 0), seg(1<<10, 0), seg(1<<10, 0), seg(1<<10, 0)}}
	if lo, hi, level := selectVictims(run, fanout, 0.5, levelBytes); lo != 0 || hi != 4 || level != 1 {
		t.Fatalf("fanout run not selected by count: lo=%d hi=%d level=%d", lo, hi, level)
	}

	// Deeper levels get fanout^level times the budget: the same two
	// 10MB segments at level 1 sit under an effective 32MB cap and wait.
	deep := &catalog{segments: []*reader{seg(10<<20, 1), seg(10<<20, 1)}}
	if lo, hi, _ := selectVictims(deep, fanout, 0.5, levelBytes); lo != hi {
		t.Fatalf("level-1 pair under its byte cap was selected: lo=%d hi=%d", lo, hi)
	}

	// levelBytes <= 0 disables the byte trigger entirely.
	if lo, hi, _ := selectVictims(huge, fanout, 0.5, 0); lo != hi {
		t.Fatalf("byte trigger fired with levelBytes=0: lo=%d hi=%d", lo, hi)
	}

	// A single huge segment is never a by-bytes victim: merges need at
	// least two inputs.
	single := &catalog{segments: []*reader{seg(64<<20, 0)}}
	if lo, hi, _ := selectVictims(single, fanout, 0.5, levelBytes); lo != hi {
		t.Fatalf("single segment selected: lo=%d hi=%d", lo, hi)
	}
}
