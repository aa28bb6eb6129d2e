package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/temporal"
)

// Out-of-core rows: the larger-than-RAM execution seam. scan-resident
// and scan-cold run the same selective prepared query over the same
// durable directory — once with every lineage in RAM, once with every
// lineage evicted, so the scan's candidates arrive through the cold
// union and per-frame envelope pruning decides how many frames are
// actually read. The directory is merged into one segment first, the
// shape a long-running store settles into: its segment envelope covers
// every value, so only the frame envelopes in its footer index can
// prune. The benchrunner gate bounds cold at 3x resident: pruning has
// to keep a selective cold scan in the same class as a resident one
// instead of decaying to a full directory decode.

// outOfCoreSegments is the flush-segment count of the bench directory
// before its merge. Keys are written in contiguous value ranges, one
// flush per range, so each flush segment's value envelope covers a
// disjoint slice — the case per-segment envelopes alone handle, and
// which the merge erases.
const outOfCoreSegments = 64

// buildOutOfCoreStore writes keys 0..keys-1 (value = key index) across
// outOfCoreSegments flush segments in dir, then merges them into one.
func buildOutOfCoreStore(dir string, keys int) *segment.Store {
	d, err := segment.Open(dir)
	if err != nil {
		panic(err)
	}
	db := d.Mem()
	per := keys / outOfCoreSegments
	if per < 1 {
		per = 1
	}
	for idx := 0; idx < keys; idx++ {
		if err := db.Put(fmt.Sprintf("k%06d", idx), "value", element.Int(int64(idx)),
			state.WithValidTime(temporal.Instant(idx+1)),
			state.WithTransactionTime(temporal.Instant(idx+1))); err != nil {
			panic(err)
		}
		if (idx+1)%per == 0 || idx == keys-1 {
			if err := d.Flush(); err != nil {
				panic(err)
			}
		}
	}
	// Compact waits for any merge the maintenance loop has in flight.
	if err := d.Compact(); err != nil {
		panic(err)
	}
	if n := d.Info().Segments; n != 1 {
		panic(fmt.Sprintf("scan-cold: merge left %d segments", n))
	}
	return d
}

// scanOutOfCore measures the selective prepared query (value > keys-10,
// ~10 matching lineages, parallelism 4) over a pinned snapshot of the
// bench directory — fully resident when evict is false, fully evicted
// when true.
func scanOutOfCore(evict bool, keys, queries int) time.Duration {
	dir, err := os.MkdirTemp("", "outofcore-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	d := buildOutOfCoreStore(dir, keys)
	if evict {
		if n := d.EvictToBudget(0); n == 0 {
			panic("scan-cold evicted nothing: the row would measure the resident path")
		}
	}
	p, err := query.Prepare(fmt.Sprintf("SELECT entity, value FROM value WHERE value > %d", keys-10))
	if err != nil {
		panic(err)
	}
	env := query.ExecEnv{Store: d.Mem().Snapshot(), Now: temporal.Instant(keys + 1), Parallelism: 4}
	start := time.Now()
	for i := 0; i < queries; i++ {
		if _, err := p.Exec(env); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	d.Abandon()
	return elapsed
}

// addOutOfCoreRows appends the out-of-core rows through add.
func addOutOfCoreRows(add func(name string, ops int, measure func() time.Duration), scale float64) {
	keys := scaleInt(8_192, scale)
	queries := scaleInt(1_500, scale)
	add("e7/scan-resident", queries, func() time.Duration { return scanOutOfCore(false, keys, queries) })
	add("e7/scan-cold", queries, func() time.Duration { return scanOutOfCore(true, keys, queries) })
}
