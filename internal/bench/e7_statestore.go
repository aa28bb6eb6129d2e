package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/element"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/temporal"
)

// E7StateStore measures the cost of the enabling substrate: the state
// repository itself. The paper's model stands or falls with the overhead
// of keeping explicit, temporally annotated state, so we measure mutation
// throughput across key populations, the effect of write-ahead logging,
// and recovery (full WAL-chain replay) — plus, since
// the store grew its transaction-time dimension, the read cost of the
// bitemporal axes: current-belief point reads against the live index
// versus transaction-time-pinned reads scanning record history. The
// final section measures multi-goroutine contention: the hash-partitioned
// sharded store against a 1-shard (single global lock) baseline on
// identical parallel read and write workloads.
func E7StateStore(scale float64) *metrics.Table {
	tab := metrics.NewTable("E7 — state repository cost",
		"keys", "mode", "ops", "ops/s", "recovery", "versions-after")

	ops := scaleInt(200_000, scale)
	for _, keys := range []int{1_000, 10_000, 100_000} {
		// In-memory mutation throughput.
		st, elapsed := mutateStore(keys, ops, nil)
		tab.AddRow(keys, "in-memory", ops, float64(ops)/elapsed.Seconds(), "-", st.Stats().Versions)

		// Bitemporal reads: retroactively correct 5% of keys, then
		// measure point reads with and without a pinned belief.
		correctRetroactively(st, keys, keys/20+1)
		reads := ops / 10
		elapsed = findThroughput(st, keys, reads, false)
		tab.AddRow(keys, "find-current", reads, float64(reads)/elapsed.Seconds(), "-", st.Stats().Versions)
		elapsed = findThroughput(st, keys, reads, true)
		tab.AddRow(keys, "find-systime", reads, float64(reads)/elapsed.Seconds(), "-", st.Stats().Versions)

		// Logged mutation throughput + full WAL-chain recovery.
		stLogged, elapsedLogged, recovery, restored := loggedMutations(keys, ops)
		tab.AddRow(keys, "logged", ops, float64(ops)/elapsedLogged.Seconds(),
			recovery.Round(time.Millisecond).String(), restored.Stats().Versions)
		if v := stLogged.Stats().Versions; v != restored.Stats().Versions {
			panic(fmt.Sprintf("logged: recovered %d versions, logged %d", restored.Stats().Versions, v))
		}
	}

	// Parallel contention: identical 8-goroutine workloads against the
	// sharded store and the single-lock baseline. On multi-core machines
	// the sharded rows scale with cores; on one core they bound the
	// striping overhead.
	parKeys := scaleInt(10_000, scale)
	parOps := scaleInt(200_000, scale)
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"sharded", 0}, {"single-lock", 1}} {
		pst := state.NewStoreWithShards(cfg.shards)
		seedCurrentValues(pst, parKeys)
		elapsed := parallelFinds(pst, parKeys, parOps, regressionWorkers)
		tab.AddRow(parKeys, "find-par8/"+cfg.name, parOps,
			float64(parOps)/elapsed.Seconds(), "-", pst.Stats().Versions)
		wst := state.NewStoreWithShards(cfg.shards)
		elapsed = parallelPuts(wst, parOps, regressionWorkers)
		tab.AddRow(parKeys, "put-par8/"+cfg.name, parOps,
			float64(parOps)/elapsed.Seconds(), "-", wst.Stats().Versions)
	}
	return tab
}

// correctRetroactively issues n bounded retroactive corrections through
// the option-based StateDB surface, superseding slices of existing
// history at transaction times after every original write.
func correctRetroactively(st *state.Store, keys, n int) {
	tx := st.Stats().TxHigh + 1
	for c := 0; c < n; c++ {
		name := fmt.Sprintf("k%06d", c%keys)
		from := temporal.Instant(1 + c%64)
		if err := st.Put(name, "value", element.Int(int64(-c)),
			state.WithValidTime(from), state.WithEndValidTime(from+4),
			state.WithTransactionTime(tx+temporal.Instant(c))); err != nil {
			panic(err)
		}
	}
}

// findThroughput times point reads over a mutateStore-shaped store:
// current-belief reads against the live index, or belief-pinned reads
// (systime) that consult the record history. Key names are pre-rendered
// so the loop measures store cost, not fmt.Sprintf.
func findThroughput(st *state.Store, keys, reads int, systime bool) time.Duration {
	names := keyNames(keys)
	tx := st.Stats().TxHigh
	start := time.Now()
	for i := 0; i < reads; i++ {
		name := names[i%keys]
		if systime {
			st.Find(name, "value", state.AsOfValidTime(temporal.Instant(i%64)),
				state.AsOfTransactionTime(tx))
		} else {
			st.Find(name, "value")
		}
	}
	return time.Since(start)
}

// loggedMutations runs mutateStore against a store logging to a fresh
// WAL chain in a temp dir, then times a full recovery of that chain into
// an empty store. It returns the logged store, the mutation time, the
// recovery time, and the recovered store.
func loggedMutations(keys, ops int) (*state.Store, time.Duration, time.Duration, *state.Store) {
	dir, err := os.MkdirTemp("", "e7-logged-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// An empty directory starts an empty chain; nothing replays.
	l, _, err := state.RecoverWALDir(dir, state.NewStore(), temporal.MinInstant, 0)
	if err != nil {
		panic(err)
	}
	st, elapsed := mutateStore(keys, ops, l)
	if err := l.Close(); err != nil {
		panic(err)
	}
	restored := state.NewStore()
	start := time.Now()
	l2, _, err := state.RecoverWALDir(dir, restored, temporal.MinInstant, 0)
	if err != nil {
		panic(err)
	}
	recovery := time.Since(start)
	if err := l2.Close(); err != nil {
		panic(err)
	}
	return st, elapsed, recovery, restored
}

// mutateStore performs ops mutations (80% put / 10% bounded assert on a
// side attribute / 10% retract) over the given key population.
func mutateStore(keys, ops int, log *state.Log) (*state.Store, time.Duration) {
	st := state.NewStore()
	if log != nil {
		st.AttachLog(log)
	}
	rng := rand.New(rand.NewSource(11))
	clock := make([]temporal.Instant, keys)
	start := time.Now()
	for i := 0; i < ops; i++ {
		k := rng.Intn(keys)
		clock[k] += temporal.Instant(1 + rng.Int63n(16))
		name := fmt.Sprintf("k%06d", k)
		switch {
		case i%10 == 8:
			if err := st.Put(name, "bounded", element.Int(int64(i)),
				state.WithValidTime(clock[k]), state.WithEndValidTime(clock[k]+8),
				state.WithTransactionTime(clock[k])); err != nil {
				panic(err)
			}
			clock[k] += 8
		case i%10 == 9:
			// Deleting where nothing is current is a no-op.
			_ = st.Delete(name, "value", state.WithValidTime(clock[k]), state.WithTransactionTime(clock[k]))
		default:
			if err := st.Replace(name, "value", element.Int(rng.Int63()), clock[k]); err != nil {
				panic(err)
			}
		}
	}
	return st, time.Since(start)
}
