package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// Sharded-store contention benchmarks: each benchmark runs the identical
// workload against the default hash-partitioned store and a 1-shard
// (single global RWMutex) baseline — the seed store's layout. Run with
// -cpu 8 for the 8-goroutine numbers the e7/{find,put}-par8 rows of the
// regression suite compare:
//
//	go test ./internal/bench/ -run NONE -bench 'Sharded.*Parallel' -cpu 8
//
// b.RunParallel spawns GOMAXPROCS goroutines; on multi-core machines the
// sharded variant scales with cores while the single lock serializes
// (writes) or ping-pongs its reader count cache line (reads). On a
// single-CPU machine the two variants time-share one core and the ratio
// collapses toward 1x — the speedup needs real parallelism to exist.

// shardedBenchVariants pairs the store-under-test with its baseline.
var shardedBenchVariants = []struct {
	name   string
	shards int
}{
	{"sharded", 0},     // GOMAXPROCS-scaled default
	{"single-lock", 1}, // the pre-sharding layout
}

// BenchmarkShardedFindParallel measures concurrent current-belief point
// reads: every goroutine walks its own stride over a shared key
// population.
func BenchmarkShardedFindParallel(b *testing.B) {
	const keys = 8192
	for _, tc := range shardedBenchVariants {
		b.Run(tc.name, func(b *testing.B) {
			st := state.NewStoreWithShards(tc.shards)
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("k%06d", i)
				if err := st.Put(names[i], "value", element.Int(int64(i)),
					state.WithValidTime(temporal.Instant(i)),
					state.WithTransactionTime(temporal.Instant(i))); err != nil {
					b.Fatal(err)
				}
			}
			var gid atomic.Int64
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := int(gid.Add(1)) * 977
				for pb.Next() {
					if _, ok := st.Find(names[i%keys], "value"); !ok {
						b.Fatal("missing version")
					}
					i += 31
				}
			})
		})
	}
}

// BenchmarkShardedPutParallel measures concurrent default-clock writes:
// goroutines own disjoint key ranges, so all contention comes from the
// locking layout (one mutex vs shard stripes) and the shared transaction
// clock.
func BenchmarkShardedPutParallel(b *testing.B) {
	const keysPerWorker = 512
	for _, tc := range shardedBenchVariants {
		b.Run(tc.name, func(b *testing.B) {
			st := state.NewStoreWithShards(tc.shards)
			var gid atomic.Int64
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				w := gid.Add(1)
				names := make([]string, keysPerWorker)
				for k := range names {
					names[k] = fmt.Sprintf("w%03d-k%04d", w, k)
				}
				for n := 0; pb.Next(); n++ {
					if err := st.Put(names[n%keysPerWorker], "value", element.Int(int64(n))); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
