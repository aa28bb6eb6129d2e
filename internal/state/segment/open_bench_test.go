package segment

import (
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// BenchmarkColdOpen measures the cold-start path on the regression
// suite's workload shape: serial Replaces over 1000 keys, a
// flush at 95%, the rest a WAL tail of opPutBatch frames, then the crash.
// Open is the measured unit (recovery to a queryable store); the
// deferred WAL rewrite is quiesced outside the timer.
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
	d.Abandon() // the crash

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rec.Abandon() // off-timer: releases the lock, quiesces the deferred WAL rewrite
		b.StartTimer()
	}
}

const recoverFlushFracBench = 0.95
