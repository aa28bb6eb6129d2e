package segment

// Maintenance-loop suite: the flush guard, the transition priority, and
// the merge pause as the loop's yield point.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/element"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

// createdFS signals the first Create of a file whose base name matches
// pattern: the event a test waits on to know a flush or merge has begun
// writing its segment.
type createdFS struct {
	vfs.FS
	pattern string
	created chan struct{}
}

func newCreatedFS(pattern string) *createdFS {
	return &createdFS{FS: vfs.OS, pattern: pattern, created: make(chan struct{}, 1)}
}

func (f *createdFS) Create(path string) (vfs.File, error) {
	if ok, _ := filepath.Match(f.pattern, filepath.Base(path)); ok {
		select {
		case f.created <- struct{}{}:
		default:
		}
	}
	return f.FS.Create(path)
}

// wait blocks until the pattern's file has been created.
func (f *createdFS) wait(t *testing.T) {
	t.Helper()
	select {
	case <-f.created:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s to be created", f.pattern)
	}
}

// TestFlushCountsWritesSinceCut: the flush guard weighs the writes since
// the last flush pinned its cut, not the WAL tail's length. The active
// WAL file keeps every record while it holds one newer than the cut, so
// a tail-length guard fires on every pulse once the tail reaches N;
// this one waits for N new writes.
func TestFlushCountsWritesSinceCut(t *testing.T) {
	const n = 8
	d, err := Open(t.TempDir(), WithFlushEvery(n))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	put := func(i int) {
		t.Helper()
		if err := d.Mem().Replace(fmt.Sprintf("k%02d", i), "v", element.Int(int64(i)), temporal.Instant(i*10)); err != nil {
			t.Fatalf("replace %d: %v", i, err)
		}
		if err := d.Mem().Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	for i := 1; i <= 2*n; i++ {
		put(i)
	}
	cut := temporal.Instant(n * 10)
	d.Pulse(cut)
	d.Idle()
	if got := d.DurableTx(); got != cut {
		t.Fatalf("first flush: durable %d, want %d", got, cut)
	}
	if w := d.Info().WALRecords; w < n {
		t.Fatalf("setup: the WAL tail holds %d writes after the flush, want >= %d", w, n)
	}
	segs := d.Info().Segments

	for i := 2*n + 1; i < 3*n; i++ {
		put(i)
		d.Pulse(temporal.Instant(i * 10))
		d.Idle()
		if got := d.DurableTx(); got != cut {
			t.Fatalf("pulse after %d new writes flushed (durable %d)", i-2*n, got)
		}
	}
	if got := d.Info().Segments; got != segs {
		t.Fatalf("segments %d -> %d without a flush", segs, got)
	}

	// The N-th write since the cut enables the flush — at this pulse's
	// cut, or at the previous one if the loop gets there first.
	put(3 * n)
	d.Pulse(temporal.Instant(3 * n * 10))
	d.Idle()
	if got := d.DurableTx(); got <= cut {
		t.Fatalf("after N new writes: durable %d, still at the first cut", got)
	}
}

// TestMaintenanceStepOrder: with a flush, an eviction and a merge all
// enabled, the loop fires them by priority — flush, then evict, then
// merge — and then nothing.
func TestMaintenanceStepOrder(t *testing.T) {
	d, err := Open(t.TempDir(), WithCompactionFanout(2), WithResidencyBudget(1), WithFlushEvery(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	buildChain(t, d, 2) // a fanout run: a merge is enabled
	putRound(t, storeBatch{d}, 2)
	// Raise the pulsed cut without ringing the loop's doorbell, so only
	// Step fires transitions.
	d.pulsed.Store(int64(d.Mem().Snapshot().At()))
	if d.Mem().ResidentBytes() <= 1 {
		t.Fatal("setup: nothing resident to evict")
	}
	for i, want := range []string{"flush", "evict", "merge", ""} {
		if got := d.Step(); got != want {
			t.Fatalf("step %d fired %q, want %q", i, got, want)
		}
	}
}

// TestFlushRunsDuringPacedMerge: a merge's rate-limit pause is the
// loop's yield point, so a flush enabled mid-merge lands while the
// merge is still building instead of after it commits.
func TestFlushRunsDuringPacedMerge(t *testing.T) {
	fsys := newCreatedFS("seg-00000003.seg") // the merge's output
	d, err := Open(t.TempDir(), WithCompactionFanout(2), WithFlushEvery(4), WithFS(fsys))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	buildChain(t, d, 2)
	// One byte per second: the merge can only end by Close. Set before
	// the first pulse, the only thing that starts a merge.
	d.compactRate = 1
	d.Pulse(d.DurableTx())
	fsys.wait(t)

	putRound(t, storeBatch{d}, 2)
	cut := d.Mem().Snapshot().At()
	d.Pulse(cut)
	waitFor(t, "flush inside the merge's pause", func() bool { return d.DurableTx() >= cut })
	if got := d.Info().Merges; got != 0 {
		t.Fatalf("the merge committed before the flush: %d merges", got)
	}
}
