package bench

import (
	"fmt"
	"time"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
)

// Partitioned-query rows: the query execution layer. scanPartitioned
// contrasts the serial snapshot gather with the shard-partitioned
// parallel gather on an identical pinned cut; queryPrepared contrasts a
// full-scan-and-filter query against the same query planned with its
// range predicate pushed into the gather, where the attribute-level
// value-envelope index skips every lineage whose values cannot match.

// seededScanStore builds the store the partition rows read: one open
// version per key, values 0..keys-1.
func seededScanStore(keys int) *state.Store {
	st := state.NewStore()
	batch := make([]state.BatchPut, 0, 512)
	flush := func() {
		if err := st.PutBatch(batch); err != nil {
			panic(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < keys; i++ {
		batch = append(batch, state.BatchPut{
			Entity: fmt.Sprintf("u%05d", i), Attr: "value",
			Value: element.Int(int64(i)), At: temporal.Instant(i + 1),
		})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	return st
}

// scanPartitioned measures wildcard attribute scans over one pinned
// snapshot: par <= 1 takes the serial List gather, higher values the
// partitioned gather with that worker count.
func scanPartitioned(par, keys, scans int) time.Duration {
	st := seededScanStore(keys)
	snap := st.Snapshot()
	start := time.Now()
	for i := 0; i < scans; i++ {
		if par <= 1 {
			snap.List(state.WithAttribute("value"))
		} else {
			snap.ScanShards(par, state.WithAttribute("value"))
		}
	}
	return time.Since(start)
}

// queryPrepared measures a selective range query (value > keys-10, ~10
// matching lineages) per execution mode: indexed=false runs the classic
// executor — full scan, then filter — while indexed=true runs the
// prepared plan, whose pushed bounds let the value-envelope index prune
// non-candidate lineages before any version is gathered. Parallelism is
// pinned to 1 so the rows isolate index pruning from partitioning.
func queryPrepared(indexed bool, keys, queries int) time.Duration {
	st := seededScanStore(keys)
	src := fmt.Sprintf("SELECT entity, value FROM value WHERE value > %d", keys-10)
	p, err := query.Prepare(src)
	if err != nil {
		panic(err)
	}
	now := temporal.Instant(keys + 1)
	snap := st.Snapshot()
	start := time.Now()
	for i := 0; i < queries; i++ {
		if indexed {
			if _, err := p.Exec(query.ExecEnv{Store: snap, Now: now, Parallelism: 1}); err != nil {
				panic(err)
			}
		} else {
			ex := &query.Executor{Store: snap, Now: now}
			if _, err := ex.Run(src); err != nil {
				panic(err)
			}
		}
	}
	return time.Since(start)
}
