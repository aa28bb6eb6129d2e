package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// The regression suite: pairs of E7 rows measured in the same run on the
// same machine, emitted by `benchrunner -json`, whose ratios the
// benchrunner gate table bounds. Every row is a (name, ns/op) pair, so a
// gate is a single ratio of two rows.

// Measurement is one regression-suite row.
type Measurement struct {
	Name      string  `json:"name"`
	Ops       int     `json:"ops"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// RegressionReport is the envelope `benchrunner -json` writes. The
// hardware fields record where the numbers were taken: the parallel
// gates only engage on machines that can run their workers at once (a
// single-CPU container cannot show multi-core speedups).
type RegressionReport struct {
	Scale      float64       `json:"scale"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Workers    int           `json:"parallel_workers"`
	Shards     int           `json:"default_shards"`
	Notes      string        `json:"notes,omitempty"`
	Results    []Measurement `json:"results"`
}

// regressionWorkers is the goroutine count of the parallel rows.
const regressionWorkers = 8

// RegressionSuite measures the state-repository hot paths at the given
// scale. Rows:
//
//	e7/find-par8/sharded         8-goroutine parallel Find, default shards
//	e7/find-par8/single-lock     the same on a 1-shard (single-lock) store
//	e7/put-par8/sharded          8-goroutine parallel Put, default shards
//	e7/put-par8/single-lock      the same on a 1-shard (single-lock) store
//	e7/ingest-serial             end-to-end Engine.Run
//	e7/fanout-1k-subscribers     the same ingest with 1k push subscribers
//	                             (one stalled) on the broker
//	e7/scan-serial               quiet-store snapshot gather, serial
//	e7/scan-par4                 the same gather, 4 partition workers
//	e7/query-fullscan            selective range query, scan-and-filter
//	e7/query-indexed             the same query, value-envelope pruning
//	e7/recover-wal               cold starts replaying the full WAL
//	                             (recoverReps per pass, as every
//	                             recover row)
//	e7/recover-segment           cold starts from segments + WAL tail
//	e7/recover-par               fully flushed cold start, GOMAXPROCS
//	                             frame-load workers
//	e7/recover-serial            the same, 1 frame-load worker
//	e7/scan-resident             selective prepared query over a durable
//	                             directory, all lineages in RAM
//	e7/scan-cold                 the same, all lineages evicted and the
//	                             directory merged to one segment (cold
//	                             union + per-frame envelope pruning)
//	e7/wal-truncate/tail-1x      whole-file WAL truncation, 1x records
//	e7/wal-truncate/tail-8x      the same file count holding 8x records
//	e7/compact-reclaim/unmerged  restart frame slots before a full merge
//	e7/compact-reclaim/merged    restart frame slots after it
//	e7/flush-os                  ingest+flush via the vfs.OS passthrough
//	e7/flush-vfs-overhead        the same via an empty fault-injection wrap
//	e7/ingest-durable            durable-engine ingest, healthy
//	e7/ingest-degraded           the same, latched degraded (WAL dropping)
//
// Each row exists to be one side of a same-run ratio; the par8 rows
// contrast the default sharded store with a single-lock baseline on
// identical workloads, and the parallel rows only beat serial given >=
// that many CPUs.
func RegressionSuite(scale float64) *RegressionReport {
	rep := &RegressionReport{
		Scale:      scale,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    regressionWorkers,
		Shards:     state.NewStore().ShardCount(),
	}
	if rep.NumCPU < regressionWorkers {
		rep.Notes = fmt.Sprintf(
			"measured with %d CPU(s): the par8 rows time-share cores, so the sharded/single-lock "+
				"ratio understates the speedup available with >= %d CPUs",
			rep.NumCPU, regressionWorkers)
	}
	// Every row is the best of five passes, and read rows rebuild their
	// store inside the pass: CI runners are noisy neighbors, map seeds
	// and heap layout vary per store, and the minimum over independent
	// builds is the measurement least polluted by either.
	add := func(name string, ops int, measure func() time.Duration) {
		elapsed := measure()
		for i := 1; i < 5; i++ {
			if again := measure(); again < elapsed {
				elapsed = again
			}
		}
		ns := float64(elapsed.Nanoseconds()) / float64(ops)
		rep.Results = append(rep.Results, Measurement{
			Name: name, Ops: ops, NsPerOp: ns, OpsPerSec: 1e9 / ns,
		})
	}

	// Parallel contention rows: sharded vs single-lock.
	keys := scaleInt(10_000, scale)
	parOps := scaleInt(200_000, scale)
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"sharded", 0}, {"single-lock", 1}} {
		shards := cfg.shards
		add("e7/find-par8/"+cfg.name, parOps, func() time.Duration {
			pst := state.NewStoreWithShards(shards)
			seedCurrentValues(pst, keys)
			return parallelFinds(pst, keys, parOps, regressionWorkers)
		})
		add("e7/put-par8/"+cfg.name, parOps, func() time.Duration {
			return parallelPuts(state.NewStoreWithShards(shards), parOps, regressionWorkers)
		})
	}

	// End-to-end ingestion rows: the whole Figure-1 pipeline, then the
	// same with 1k subscription clients attached (one permanently
	// stalled).
	ingestOps := scaleInt(400_000, scale)
	add("e7/ingest-serial", ingestOps, func() time.Duration {
		elapsed, _ := ingestThroughput(ingestOps)
		return elapsed
	})
	fanoutSubs := scaleInt(1_000, scale)
	add("e7/fanout-1k-subscribers", ingestOps, func() time.Duration {
		return fanoutRun(fanoutSubs, ingestOps)
	})

	// Partitioned-execution rows: serial vs 4-way partitioned gather over
	// one pinned snapshot, then an identical selective range query
	// executed by full scan-and-filter vs the prepared plan whose pushed
	// bounds engage the value-envelope index.
	scanKeys := scaleInt(4_096, scale)
	quietScans := scaleInt(2_000, scale)
	add("e7/scan-serial", quietScans, func() time.Duration {
		return scanPartitioned(1, scanKeys, quietScans)
	})
	add("e7/scan-par4", quietScans, func() time.Duration {
		return scanPartitioned(4, scanKeys, quietScans)
	})
	selective := scaleInt(2_000, scale)
	add("e7/query-fullscan", selective, func() time.Duration {
		return queryPrepared(false, scanKeys, selective)
	})
	add("e7/query-indexed", selective, func() time.Duration {
		return queryPrepared(true, scanKeys, selective)
	})

	addRecoveryRows(add, scale)
	addOutOfCoreRows(add, scale)
	addWALTruncateRows(add)
	addCompactReclaimRows(rep)
	addFaultRows(add, scale)
	return rep
}

// keyNames pre-renders key names so hot loops measure store cost, not
// fmt.Sprintf.
func keyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%06d", i)
	}
	return out
}

// seedCurrentValues gives every key one open version.
func seedCurrentValues(st *state.Store, keys int) {
	for i, name := range keyNames(keys) {
		if err := st.Put(name, "value", element.Int(int64(i)),
			state.WithValidTime(temporal.Instant(i)),
			state.WithTransactionTime(temporal.Instant(i))); err != nil {
			panic(err)
		}
	}
}

// parallelFinds runs totalOps point reads split across workers goroutines
// and returns the wall-clock duration — the contention-sensitive measure
// the sharding refactor targets.
func parallelFinds(st *state.Store, keys, totalOps, workers int) time.Duration {
	names := keyNames(keys)
	per := totalOps / workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Offset stride per worker so goroutines walk different keys.
			i := w * 977
			for n := 0; n < per; n++ {
				st.Find(names[i%keys], "value")
				i += 31
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// parallelPuts runs totalOps default-clock Puts split across workers
// goroutines with disjoint per-worker key ranges, measuring write-path
// contention: shard locks plus the shared transaction clock.
func parallelPuts(st *state.Store, totalOps, workers int) time.Duration {
	per := totalOps / workers
	const keysPerWorker = 512
	names := make([][]string, workers)
	for w := range names {
		names[w] = make([]string, keysPerWorker)
		for k := range names[w] {
			names[w][k] = fmt.Sprintf("w%02d-k%04d", w, k)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				if err := st.Put(names[w][n%keysPerWorker], "value", element.Int(int64(n))); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
