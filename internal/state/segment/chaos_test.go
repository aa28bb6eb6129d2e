package segment

// Chaos suite: scripted disk-fault schedules (via vfs.FaultFS) driving
// flushes, recovery, and ingestion, checked against the suite's
// invariants — a disk fault never corrupts RAM state, never loses an
// acknowledged flushed watermark, and always either recovers or
// degrades loudly. State comparisons are byte-equality against the
// WAL-only no-fault oracle of segment_test.go.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

// fastRetry keeps chaos schedules quick without changing the protocol.
var fastRetry = RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultTransientFlushRetries: transient segment-create failures are
// retried with backoff and the flush lands without degrading.
func TestFaultTransientFlushRetries(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "seg-*.seg", Count: 2,
		Err: vfs.Transient(errors.New("disk pressure"))})
	d, err := Open(t.TempDir(), WithFS(ffs), WithFlushEvery(1), WithRetryPolicy(fastRetry))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()

	mutate(t, storeBatch{d}, 0)
	cut := d.Mem().Snapshot().At()
	d.Pulse(cut)
	d.Idle()
	if d.DurableTx() < cut {
		t.Fatalf("retried flush did not land: durable %d < cut %d", d.DurableTx(), cut)
	}
	if err := d.LastFlushErr(); err != nil {
		t.Fatalf("last flush error must clear on success: %v", err)
	}

	if deg := d.Degraded(); deg != nil {
		t.Fatalf("transient faults must not degrade: %+v", deg)
	}
	if retries := d.Info().FlushRetries; retries < 2 {
		t.Fatalf("want >= 2 transient retries, got %d", retries)
	}
}

// TestPulseAfterCloseIsNoop: a pulse that reaches a closed store — after
// Close returned, or racing it — must not flush, degrade, record a flush
// error, or fire a degraded hook.
func TestPulseAfterCloseIsNoop(t *testing.T) {
	for _, racing := range []bool{false, true} {
		t.Run(fmt.Sprintf("racing=%v", racing), func(t *testing.T) {
			d, err := Open(t.TempDir(), WithFlushEvery(0))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			var hooks atomic.Int32
			d.OnDegraded(func(*Degraded) { hooks.Add(1) })
			if err := d.Put("k", "v", element.Int(1)); err != nil {
				t.Fatalf("put: %v", err)
			}
			pulse := func() { d.Pulse(d.DurableTx() + 1000) }
			if racing {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						pulse()
					}
				}()
				if err := d.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				wg.Wait()
			} else {
				if err := d.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
			pulse()
			d.Idle()
			if deg := d.Degraded(); deg != nil {
				t.Fatalf("a pulse degraded the closed store: %+v", deg)
			}
			if err := d.LastFlushErr(); err != nil {
				t.Fatalf("a pulse recorded a flush error on the closed store: %v", err)
			}
			if n := hooks.Load(); n != 0 {
				t.Fatalf("degraded hooks fired %d times", n)
			}
		})
	}
}

// TestDegradePermanentFlushServesRAMAndResumes: a permanent flush
// failure latches degraded mode loudly; ingest and RAM reads keep
// working, pulses stop, and Resume exits the mode. A restart after the
// resume recovers the oracle state exactly.
func TestDegradePermanentFlushServesRAMAndResumes(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "seg-*.seg", Count: 1,
		Err: vfs.Permanent(errors.New("medium error"))})
	d, err := Open(dir, WithFS(ffs), WithFlushEvery(1), WithRetryPolicy(fastRetry))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	var hookMu sync.Mutex
	var transitions []*Degraded
	d.OnDegraded(func(deg *Degraded) {
		hookMu.Lock()
		transitions = append(transitions, deg)
		hookMu.Unlock()
	})

	mutate(t, storeBatch{d}, 0)
	d.Pulse(d.Mem().Snapshot().At())
	d.Idle()
	deg := d.Degraded()
	if deg == nil {
		t.Fatalf("a permanent flush failure must latch degraded mode")
	}
	if deg.Cause == nil || deg.Since.IsZero() {
		t.Fatalf("degraded record must name a cause and a time: %+v", deg)
	}
	if deg.RetriesExhausted {
		t.Fatalf("a permanent error degrades immediately, not via retry exhaustion")
	}
	if d.Info().Degraded == nil || d.LastFlushErr() == nil {
		t.Fatalf("degraded mode must be loud in Info and LastFlushErr")
	}

	// RAM serving and ingest continue.
	if _, ok := d.Find("k00", "value"); !ok {
		t.Fatalf("RAM point read must keep working while degraded")
	}
	mutate(t, storeBatch{d}, 1)
	if got := d.List(state.WithAttribute("batch")); len(got) == 0 {
		t.Fatalf("RAM scan must keep working while degraded")
	}

	// Pulses are skipped: the durable cut must not move.
	d.Pulse(d.Mem().Snapshot().At())
	d.Idle()
	if d.DurableTx() != temporal.MinInstant {
		t.Fatalf("degraded store must not flush on Pulse")
	}

	// The fault script is exhausted (Count 1): Resume flushes and heals.
	if err := d.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if d.Degraded() != nil {
		t.Fatalf("resume must clear the degraded latch")
	}
	if d.DurableTx() == temporal.MinInstant {
		t.Fatalf("resume must advance the durable cut")
	}
	hookMu.Lock()
	if len(transitions) != 2 || transitions[0] == nil || transitions[1] != nil {
		t.Fatalf("want one entry + one exit hook firing, got %v", transitions)
	}
	hookMu.Unlock()

	// Restart oracle: crash after the resume recovers the exact state.
	d.Abandon()
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	want := snapshotBytes(t, oracle(t, 2))
	got := snapshotBytes(t, rec.Mem())
	if !bytes.Equal(got, want) {
		t.Fatalf("degraded-then-resume restart differs from oracle (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDegradeWALAppendDropsAcksAndFlushExits: a WAL write failure
// mid-append degrades the store immediately — later appends are
// acknowledged and counted, not blocked — and a manual Flush rearms the
// WAL, captures the full RAM state in segments, and exits the mode.
// State written both before and after the fault survives a restart.
func TestDegradeWALAppendDropsAcksAndFlushExits(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: "wal.*", After: 5, Count: 1,
		Err: errors.New("io error")})
	d, err := Open(dir, WithFS(ffs))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	mutate(t, storeBatch{d}, 0) // the 6th append fails mid-round; the rest are acked+dropped
	if d.Degraded() == nil {
		t.Fatalf("WAL append failure must degrade immediately")
	}
	if !d.log.Dropping() {
		t.Fatalf("the WAL must be dropping after an append failure")
	}
	mutate(t, storeBatch{d}, 1) // still acknowledged
	if n := d.Info().DroppedAppends; n == 0 {
		t.Fatalf("dropped appends must be counted")
	}

	// Manual Flush: rearm, pin past every dropped append, flush, heal.
	if err := d.Flush(); err != nil {
		t.Fatalf("flush out of degraded mode: %v", err)
	}
	if d.Degraded() != nil || d.log.Dropping() {
		t.Fatalf("flush must clear degraded mode and rearm the WAL")
	}

	// Post-resume appends land in the fresh WAL.
	mutate(t, storeBatch{d}, 2)
	d.Abandon()

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	want := snapshotBytes(t, oracle(t, 3))
	got := snapshotBytes(t, rec.Mem())
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from oracle (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFaultCrashDuringTruncateBefore: the post-flush WAL truncation is
// whole-file unlinks (plus a rotate-out create for a fully covered
// active file) — a failing unlink or create never fails the flush: the
// manifest commit already made the cut durable, the covered file stays
// in the chain counted as a drop failure, and recovery filters its
// redundant records by the cut.
func TestFaultCrashDuringTruncateBefore(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rule       vfs.Rule
		wantFailed bool
	}{
		// After: 1 skips the chain-create at Open so the fault lands on
		// the truncation's rotate-out create.
		{"remove-error", vfs.Rule{Op: vfs.OpRemove, Path: "wal.*", Count: 1, Err: errors.New("remove failed")}, true},
		{"create-error", vfs.Rule{Op: vfs.OpCreate, Path: "wal.*", After: 1, Count: 1, Err: errors.New("create failed")}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS)
			ffs.AddRule(tc.rule)
			d, err := Open(dir, WithFS(ffs))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			mutate(t, storeBatch{d}, 0)
			mutate(t, storeBatch{d}, 1)
			if err := d.Flush(); err != nil {
				t.Fatalf("a whole-file truncation failure must not fail the flush: %v", err)
			}
			// The segment flush and manifest commit preceded the failed
			// truncation: the acknowledged cut must already be durable.
			if d.DurableTx() == temporal.MinInstant {
				t.Fatalf("manifest commit must have advanced the durable cut")
			}
			if tc.wantFailed && d.Info().WALDropFailures == 0 {
				t.Fatalf("a failed WAL unlink must be counted")
			}
			d.Abandon() // crash

			rec, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer rec.Close()
			want := snapshotBytes(t, oracle(t, 2))
			got := snapshotBytes(t, rec.Mem())
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered state differs from oracle (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestFaultManifestRenameMidway: the manifest commit rename failing —
// not performed, or performed with the error reported (the ambiguous
// torn outcome) — leaves a directory that recovers the oracle state:
// the commit is atomic, so recovery sees either the old or the new
// manifest and the untruncated WAL covers the difference.
func TestFaultManifestRenameMidway(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule vfs.Rule
	}{
		{"rename-error", vfs.Rule{Op: vfs.OpRename, Path: manifestName, Count: 1, Err: errors.New("rename failed")}},
		{"torn-rename", vfs.Rule{Op: vfs.OpRename, Path: manifestName, Count: 1, Err: errors.New("rename torn"), TornRename: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS)
			ffs.AddRule(tc.rule)
			d, err := Open(dir, WithFS(ffs))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			mutate(t, storeBatch{d}, 0)
			if err := d.Flush(); err == nil {
				t.Fatalf("flush must surface the manifest commit failure")
			}
			d.Abandon() // crash mid-flush

			rec, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer rec.Close()
			want := snapshotBytes(t, oracle(t, 1))
			got := snapshotBytes(t, rec.Mem())
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered state differs from oracle (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestDegradeFallthroughReadsServe: degraded mode stops the write path
// only. Point reads and scans keep resolving a key whose lineage lives
// only in committed segments, with exactly the rows they returned while
// healthy — a failed flush does not make durable state absent.
func TestDegradeFallthroughReadsServe(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	db := d.Mem()
	// A fully bounded lineage, evicted from RAM after its flush: the
	// standard fallthrough setup of TestRecoveryFallthroughReads.
	if err := db.Put("old", "v", element.Int(1),
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
	want, ok := d.Find("old", "v", state.AsOfValidTime(15))
	if !ok {
		t.Fatalf("fallthrough read must work while healthy")
	}
	healthy := d.List(state.AllVersions())
	if len(healthy) != 1 {
		t.Fatalf("healthy scan returned %d facts, want 1", len(healthy))
	}

	d.enterDegraded(errors.New("scripted"), false)
	defer d.exitDegraded()
	if got, ok := d.Find("old", "v", state.AsOfValidTime(15)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded point read diverged: (%v,%v) vs %v", got, ok, want)
	}
	if got := d.List(state.AllVersions()); !reflect.DeepEqual(got, healthy) {
		t.Fatalf("degraded scan diverged: %v vs %v", got, healthy)
	}
}

// TestChaosConcurrentScheduleRecovers drives deterministic ingestion,
// background pulses, and concurrent readers through a fault schedule —
// transient flush failures, then a permanent one that degrades the
// store — under the race detector. After the fault clears, Resume heals
// the store and a restart recovers byte-identically to the no-fault
// oracle: the faults never corrupted RAM state.
func TestChaosConcurrentScheduleRecovers(t *testing.T) {
	const rounds = 6
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "seg-*.seg", Count: 2,
		Err: vfs.Transient(errors.New("disk pressure"))})
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "seg-*.seg", Count: 1,
		Err: vfs.Permanent(errors.New("medium error"))})
	d, err := Open(dir, WithFS(ffs), WithFlushEvery(1), WithRetryPolicy(fastRetry))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Readers hammer the store throughout; their results are incidental —
	// the invariant is no race, no panic, no torn read.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				d.Find("k00", "value")
				d.List(state.WithAttribute("batch"))
				d.History("k01", "value", state.AllVersions())
				d.Info()
			}
		}()
	}

	// One deterministic writer: the mutation sequence matches the oracle
	// regardless of where in it the fault schedule fires.
	for r := 0; r < rounds; r++ {
		mutate(t, storeBatch{d}, r)
		d.Pulse(d.Mem().Snapshot().At())
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, "permanent fault to degrade the store", func() bool { return d.Degraded() != nil })

	// The disk "heals": both rules have fired their Count, so the
	// schedule injects nothing more. Resume.
	if err := d.Resume(); err != nil {
		t.Fatalf("resume after fault cleared: %v", err)
	}
	if d.Degraded() != nil {
		t.Fatalf("store must be healthy after resume")
	}
	resumeCut := d.DurableTx()
	if resumeCut == temporal.MinInstant {
		t.Fatalf("resume must advance the durable cut")
	}
	close(done)
	readers.Wait()

	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	// Acknowledged flushed watermarks survive the restart…
	if rec.DurableTx() < resumeCut {
		t.Fatalf("restart lost an acknowledged durable cut: %d < %d", rec.DurableTx(), resumeCut)
	}
	// …and the state is byte-identical to a run that saw no faults.
	want := snapshotBytes(t, oracle(t, rounds))
	got := snapshotBytes(t, rec.Mem())
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos-recovered state differs from no-fault oracle (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosEvictionKillBetweenEvictAndFlush: eviction marks live only in
// RAM until the next flush commits them to the manifest. A crash inside
// that window loses the marks — the keys reload resident — but must lose
// nothing else: the recovered store is byte-identical to the no-eviction
// oracle, because eviction only ever removes state a durable frame
// already holds.
func TestChaosEvictionKillBetweenEvictAndFlush(t *testing.T) {
	const rounds = 2
	dir := t.TempDir()
	d, err := Open(dir, WithResidencyBudget(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for r := 0; r < rounds; r++ {
		mutate(t, storeBatch{d}, r)
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	if n := d.EvictToBudget(0); n == 0 {
		t.Fatal("nothing evicted — the crash window is empty")
	}
	d.Abandon() // kill before any flush could commit the evicted set

	rec, err := Open(dir, WithResidencyBudget(1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	assertColdSeam(t, rec)
	want := snapshotBytes(t, oracle(t, rounds))
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("crash between evict and flush lost state (%d vs %d bytes)", len(got), len(want))
	}
	// The recovered store is fully usable: it can ingest, flush, evict,
	// and still match the oracle of the longer schedule.
	mutate(t, storeBatch{rec}, rounds)
	if err := rec.Flush(); err != nil {
		t.Fatalf("post-recovery flush: %v", err)
	}
	rec.EvictToBudget(0)
	assertColdSeam(t, rec)
	want = snapshotBytes(t, oracle(t, rounds+1))
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("post-recovery eviction diverged (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosEvictDuringMerge races working-set eviction against leveled
// compaction on every round: the merge rewrites the very frames the
// evicted lineages now depend on, so the catalog swap and the cold-read
// seam must stay consistent throughout. The survivor is compared
// byte-for-byte against an identical schedule that never compacted or
// evicted, then crash-restarted and compared again.
func TestChaosEvictDuringMerge(t *testing.T) {
	const rounds = 6
	dir := t.TempDir()
	d, err := Open(dir, WithCompactionFanout(2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ref, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open ref: %v", err)
	}
	defer ref.Close()
	d.Mem().SetAccessTracking(true)
	for r := 0; r < rounds; r++ {
		putRound(t, storeBatch{d}, r)
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		putRound(t, storeBatch{ref}, r)
		if err := ref.Flush(); err != nil {
			t.Fatalf("ref flush: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := d.Compact(); err != nil {
				t.Errorf("compact round %d: %v", r, err)
			}
		}()
		go func() {
			defer wg.Done()
			d.EvictToBudget(0)
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	want := snapshotBytes(t, ref.Mem())
	if got := snapshotBytes(t, d.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("evict racing merge diverged live (%d vs %d bytes)", len(got), len(want))
	}
	d.Abandon()
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, want) {
		t.Fatalf("evict racing merge diverged after crash-restart (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosScanRacingEviction: a snapshot pinned before eviction must
// keep answering — identically — while and after every lineage it covers
// is evicted out from under it. The pin holds no head pointers; it is
// the merged gather's job to serve the evicted lineages from frames.
func TestChaosScanRacingEviction(t *testing.T) {
	d, err := Open(t.TempDir(), WithResidencyBudget(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	for r := 0; r < 2; r++ {
		mutate(t, storeBatch{d}, r)
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	sn := d.Mem().Snapshot()
	want := sn.List(state.AllVersions())
	if len(want) == 0 {
		t.Fatal("empty pinned scan — nothing to race")
	}
	done := make(chan int)
	go func() { done <- d.EvictToBudget(0) }()
	for i := 0; i < 100; i++ {
		if got := sn.List(state.AllVersions()); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: pinned scan changed under racing eviction (%d vs %d facts)", i, len(got), len(want))
		}
	}
	if n := <-done; n == 0 {
		t.Fatal("nothing evicted — the race never happened")
	}
	// Eviction has fully landed: the pin must now be served entirely
	// through the cold seam, still byte-identically, at any parallelism.
	if got := sn.List(state.AllVersions()); !reflect.DeepEqual(got, want) {
		t.Fatal("pinned scan diverged after eviction completed")
	}
	for _, par := range []int{1, 4, 8} {
		if got := sn.ScanShards(par, state.AllVersions()); !reflect.DeepEqual(got, want) {
			t.Fatalf("pinned ScanShards(%d) diverged after eviction", par)
		}
	}
}

// TestFaultInUnreadableFrameFailsWrite: a write to an evicted key whose
// durable frame cannot be read — a flipped payload byte fails the frame
// checksum, an injected pread error fails the read — must fail, commit
// nothing, and leave the key evicted. Committing onto a fresh lineage
// instead would make the next flush frame supersede the unread history.
// Once the frame reads again the same write succeeds, and a restart
// recovers every version.
func TestFaultInUnreadableFrameFailsWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		// unreadable breaks the key's only frame and returns its repair.
		unreadable func(t *testing.T, dir string, ffs *vfs.FaultFS) (repair func())
	}{
		{"flipped-payload-byte", func(t *testing.T, dir string, _ *vfs.FaultFS) func() {
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("want one segment, got %v (%v)", segs, err)
			}
			flip := func() {
				f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				// The first frame's payload starts after the file magic
				// and the frame header; its crc32c covers every byte.
				off := int64(len(fileMagic)) + frame.HeaderLen + 1
				var b [1]byte
				if _, err := f.ReadAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0xFF
				if _, err := f.WriteAt(b[:], off); err != nil {
					t.Fatal(err)
				}
			}
			flip()
			return flip
		}},
		{"readat-error", func(_ *testing.T, _ string, ffs *vfs.FaultFS) func() {
			ffs.AddRule(vfs.Rule{Op: vfs.OpReadAt, Path: "seg-*.seg", Count: 1})
			return func() {} // the rule fires once
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS)
			d, err := Open(dir, WithFS(ffs))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ref := state.NewStore()
			replace := func(i int) {
				t.Helper()
				if err := d.Mem().Replace("k", "v", element.Int(int64(i)), temporal.Instant(i*10)); err != nil {
					t.Fatalf("replace %d: %v", i, err)
				}
				if err := ref.Replace("k", "v", element.Int(int64(i)), temporal.Instant(i*10)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= 5; i++ {
				replace(i)
			}
			if err := d.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if n := d.EvictToBudget(0); n != 1 {
				t.Fatalf("evicted %d lineages, want 1", n)
			}
			repair := tc.unreadable(t, dir, ffs)
			if err := d.Mem().Replace("k", "v", element.Int(6), 60); err == nil {
				t.Fatal("write to an evicted key with an unreadable frame succeeded")
			}
			if got := d.Info().EvictedLineages; got != 1 {
				t.Fatalf("failed fault-in left %d evicted keys, want 1", got)
			}
			repair()
			replace(6)
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			rec, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer rec.Close()
			want := ref.History("k", "v", state.AllVersions())
			if got := rec.History("k", "v", state.AllVersions()); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered history has %d records, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
		})
	}
}

// TestChaosCorruptColdFrame: a scan whose gather must read an evicted
// key's frame, and finds it failing its checksum, fails — at every
// parallelism and through a prepared query — instead of answering
// without that key's row. Point reads and histories load the same frame
// through the same loader: the victim answers nothing, never a value
// decoded from the bad bytes, and every other evicted key answers as it
// did before. The scans reach the frame through the resolution their
// scope kept before the corruption. Repairing the byte restores the
// full answer.
func TestChaosCorruptColdFrame(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	const keys = 200
	for i := 0; i < keys; i++ {
		if err := d.Mem().Replace(fmt.Sprintf("e%03d", i), "value", element.Int(int64(i)), temporal.Instant(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := d.EvictToBudget(0); n != keys {
		t.Fatalf("evicted %d lineages, want %d", n, keys)
	}
	victim := element.FactKey{Entity: "e137", Attribute: "value"}
	seg, off, ok := d.cat.Load().owner(victim)
	if !ok {
		t.Fatalf("no frame for %s", victim)
	}
	// Flip the last payload byte: a value byte of the victim's last record.
	flip := func() {
		f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var hdr [frame.HeaderLen]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			t.Fatal(err)
		}
		at := off + frame.HeaderLen + int64(binary.LittleEndian.Uint32(hdr[:])) - 1
		var b [1]byte
		if _, err := f.ReadAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b[:], at); err != nil {
			t.Fatal(err)
		}
	}
	p, err := query.Prepare("SELECT entity, value FROM value")
	if err != nil {
		t.Fatal(err)
	}
	sn := d.Mem().Snapshot()
	type point struct {
		find  *element.Fact
		value element.Value
		hist  []*element.Fact
	}
	read := func(entity string) point {
		f, _ := d.Find(entity, "value")
		v, _ := sn.FindValue(entity, "value", state.ReadSpec{})
		return point{f, v, d.Mem().History(entity, "value", state.AsOfTransactionTime(sn.At()))}
	}
	want := make([]point, keys)
	for i := range want {
		if want[i] = read(fmt.Sprintf("e%03d", i)); want[i].find == nil || len(want[i].hist) != 1 {
			t.Fatalf("e%03d: evicted key reads %+v before any corruption", i, want[i])
		}
	}
	check := func(corrupt bool) {
		t.Helper()
		for i := range want {
			entity := fmt.Sprintf("e%03d", i)
			if corrupt && entity == victim.Entity {
				// ROADMAP item 8 turns these into errors; until then an
				// unreadable frame reads as absent.
				f, ok := d.Find(entity, "value")
				v, vok := sn.FindValue(entity, "value", state.ReadSpec{})
				if h := d.Mem().History(entity, "value", state.AsOfTransactionTime(sn.At())); ok || vok || len(h) != 0 {
					t.Fatalf("point reads over a corrupt frame answered Find %v, FindValue %v, History %v; want no row until they report an error", f, v, h)
				}
				continue
			}
			if got := read(entity); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s (corrupt=%v): point reads answer %+v, want %+v", entity, corrupt, got, want[i])
			}
		}
		for _, par := range []int{1, 2} {
			rows, stats := sn.ScanPartitioned(state.ScanSpec{Opts: []state.ReadOpt{state.WithAttribute("value")}, Parallelism: par})
			res, err := p.Exec(query.ExecEnv{Store: sn, Parallelism: par})
			if !corrupt {
				if stats.Err != nil || len(rows) != keys || err != nil || len(res.Rows) != keys {
					t.Fatalf("par=%d: %d rows (%v), Exec %v", par, len(rows), stats.Err, err)
				}
				continue
			}
			if !errors.Is(stats.Err, state.ErrColdFrame) || rows != nil {
				t.Fatalf("par=%d: ScanPartitioned over a corrupt frame returned %d rows, err %v", par, len(rows), stats.Err)
			}
			if !errors.Is(err, state.ErrColdFrame) || res != nil {
				t.Fatalf("par=%d: Exec over a corrupt frame returned %v, err %v", par, res, err)
			}
		}
	}
	check(false)
	// Those scans kept the resolution of the scope's cold keys: the
	// corrupt frame is reached through it, not through a fresh resolve.
	warm := d.Mem().ColdResolutions()
	if len(warm) == 0 || !warm[0].Current() {
		t.Fatalf("no current resolution kept after the scans: %v", warm)
	}
	flip()
	check(true)
	if kept := d.Mem().ColdResolutions(); len(kept) != len(warm) || !slices.Contains(warm, kept[0]) {
		t.Fatalf("scans over the corrupt frame resolved afresh: %d resolutions kept, %d before", len(kept), len(warm))
	}
	flip()
	check(false)
}
