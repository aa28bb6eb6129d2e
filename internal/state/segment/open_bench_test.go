package segment

import (
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// BenchmarkColdOpen measures the cold-start path on the regression
// suite's workload shape: serial Replaces over 1000 keys, a
// flush at 95%, the rest a committed WAL tail, then the crash. Open is
// the measured unit (recovery to a queryable store), and each reopen
// must replay the whole tail; the deferred WAL rewrite is quiesced
// outside the timer.
func BenchmarkColdOpen(b *testing.B) {
	const n = 25_000
	const keys = 1_000
	dir := b.TempDir()
	d, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("s%04d", i)
	}
	split := int(float64(n) * recoverFlushFracBench)
	for i := 0; i < n; i++ {
		if err := d.Mem().Replace(names[i%keys], "temperature", element.Float(float64(i)), temporal.Instant(i+1)); err != nil {
			b.Fatal(err)
		}
		if i == split {
			if err := d.FlushAt(temporal.Instant(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Replace only stages its WAL write: commit the tail, or the crash
	// loses it and Open has nothing to replay.
	if err := d.Mem().Commit(); err != nil {
		b.Fatal(err)
	}
	d.Abandon()       // the crash
	tail := n - split // the write at split is recorded after the flush's cut

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := rec.Info().WALRecords; got != tail {
			b.Fatalf("reopen replayed %d WAL writes, want the %d-write tail", got, tail)
		}
		rec.Abandon() // off-timer: releases the lock, quiesces the deferred WAL rewrite
		b.StartTimer()
	}
}

const recoverFlushFracBench = 0.95
