package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/temporal"
)

// maxIngestAllocsPerElement bounds heap allocations per element on the
// serial ingest path: 3.65 measured when the bound was set, plus 30%
// headroom. Allocation counts do not depend on the machine, so unlike the
// benchrunner timing ratios this bound holds on every CI runner.
const maxIngestAllocsPerElement = 4.7

// TestIngestAllocsPerElement guards the ingest hot path's allocation
// budget at the e7/ingest-serial row's CI size (-scale 0.25).
func TestIngestAllocsPerElement(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, allocs := ingestThroughput(100_000)
	if allocs > maxIngestAllocsPerElement {
		t.Fatalf("serial ingest: %.2f allocs/element, want <= %.2f", allocs, maxIngestAllocsPerElement)
	}
}

// maxDurableIngestAllocsPerElement bounds the same serial ingest into a
// durable directory: 3.60 measured when the bound was set, plus 30%.
// Staged Replaces reuse the log's stage array and each micro-batch is
// appended as one binary frame into the log's reused encode buffer, so
// the WAL adds next to nothing to the in-memory budget.
const maxDurableIngestAllocsPerElement = 4.7

// TestDurableIngestAllocsPerElement guards the durable serial ingest
// path's allocation budget. Background flushes are disabled so the
// count is the ingest path's alone.
func TestDurableIngestAllocsPerElement(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	e := ingestEngine(core.WithDurableDir(t.TempDir(), segment.WithFlushEvery(1<<30)))
	if err := e.Health().DurableErr; err != nil {
		t.Fatal(err)
	}
	defer e.Durable().Abandon()
	_, allocs := ingestRun(e, 100_000)
	t.Logf("durable serial ingest: %.2f allocs/element", allocs)
	if allocs > maxDurableIngestAllocsPerElement {
		t.Fatalf("durable serial ingest: %.2f allocs/element, want <= %.2f", allocs, maxDurableIngestAllocsPerElement)
	}
}

// TestReplaceAllocs pins the rule engine's serial REPLACE hot path,
// state.Store.Replace: a fast-path replace of an open version allocates
// only the new fact, the closed remnant and the successor head, with or
// without a watcher attached (change scratch is pooled).
func TestReplaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	st := state.NewStore()
	at := temporal.Instant(1)
	st.Replace("k", "v", element.Int(0), at)
	replace := func() {
		at++
		if err := st.Replace("k", "v", element.Int(int64(at)), at); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, replace); n > 3 {
		t.Errorf("Replace: %v allocs/op, want <= 3", n)
	}
	st.WatchBatch(func([]state.Change) {})
	if n := testing.AllocsPerRun(1000, replace); n > 3 {
		t.Errorf("watched Replace: %v allocs/op, want <= 3", n)
	}
}

// BenchmarkIngestSerial drives one fixed-size message batch through a
// fresh engine per iteration, so ns/op and allocs/op are per 50k-element
// pipeline run; the elems/s metric is the headline number.
func BenchmarkIngestSerial(b *testing.B) {
	const n = 50_000
	msgs := ingestMessages(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ingestEngine()
		if err := e.Run(msgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

// BenchmarkPutBatch measures the store-level group commit — 50k replace
// writes over 1k keys in micro-batches of ingestWMEvery — to contrast
// with the per-put path of BenchmarkShardedPutParallel.
func BenchmarkPutBatch(b *testing.B) {
	const keys, ops = 1_000, 50_000
	names := keyNames(keys)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := state.NewStore()
		batch := make([]state.BatchPut, 0, ingestWMEvery)
		for j := 0; j < ops; j++ {
			batch = append(batch, state.BatchPut{
				Entity: names[j%keys], Attr: "value",
				Value: element.Int(int64(j)), At: temporal.Instant(j + 1),
			})
			if len(batch) == ingestWMEvery {
				if err := st.PutBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := st.PutBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
