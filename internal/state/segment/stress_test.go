package segment

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
)

// TestRecoveryStress races ingestion (point puts and group commits),
// repeated durability flushes, and snapshot-pinned reads, then
// crash-reopens the directory and asserts the recovered store matches
// the live one byte-identically. Run under -race this doubles as the
// data-race proof for the flush path: the gather is lock-free against
// published heads while writers keep committing.
func TestRecoveryStress(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithFlushEvery(64))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	const (
		writers = 4
		rounds  = 200
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Background flusher: explicit flushes racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()

	// Snapshot-pinned readers: the recovery-time read surface, taken
	// while flushes and ingest run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := d.Mem().Snapshot()
			_ = sn.List()
			_, _ = d.Find("w0-k00", "value")
		}
	}()

	// Writers stay on the default-clock surface: explicit transaction
	// times racing a flush pin can land behind an already-durable cut
	// and forfeit durability by design (the snapshot.go caveat), so
	// they have no byte-equality guarantee to assert here. The engine's
	// watermark-disciplined PutBatch path is covered deterministically
	// by the core restart test.
	var ingest sync.WaitGroup
	for w := 0; w < writers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			db := d.Mem()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-k%02d", w, i%16)
				if err := db.Put(key, "value", element.Int(int64(i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%16 == 0 {
					if err := db.Put(key, "audit", element.String("tag"),
						state.WithEndValidTime(d.Mem().Snapshot().At()+1_000_000)); err != nil {
						t.Errorf("bounded put: %v", err)
						return
					}
				}
			}
		}(w)
	}
	ingest.Wait()
	close(stop)
	wg.Wait()

	want := snapshotBytes(t, d.Mem())
	// Crash: Abandon instead of Close — no final flush. The WAL plus
	// flushed segments must reconstruct the exact final state.
	d.Abandon()
	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	got := snapshotBytes(t, rec.Mem())
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs after concurrent ingest+flush (%d vs %d bytes)", len(got), len(want))
	}
}
