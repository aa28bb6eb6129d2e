package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/element"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
)

// E4StateQuery measures the §3.2 "queryable state" benefit: the state
// repository answers on-demand queries over both current state and
// historical data. We populate stores of increasing history size and
// measure point lookups (current and as-of), attribute scans, and the
// query language end-to-end (parse + plan + execute).
func E4StateQuery(scale float64) *metrics.Table {
	tab := metrics.NewTable("E4 — state query performance (§3.2)",
		"versions", "current-lookup", "asof-lookup", "attr-scan", "lang-query", "lookups/s")

	for _, versions := range []int{10_000, 100_000, 400_000} {
		n := scaleInt(versions, scale)
		st, keys, horizon := populateStore(n)
		rng := rand.New(rand.NewSource(7))

		const probes = 2000
		var curH, asofH, scanH, langH metrics.Histogram
		for i := 0; i < probes; i++ {
			k := keys[rng.Intn(len(keys))]
			t0 := time.Now()
			st.Find(k, "value")
			curH.Record(time.Since(t0))

			at := temporal.Instant(rng.Int63n(int64(horizon)))
			t0 = time.Now()
			st.Find(k, "value", state.AsOfValidTime(at))
			asofH.Record(time.Since(t0))
		}
		for i := 0; i < 50; i++ {
			t0 := time.Now()
			st.List(state.WithAttribute("value"))
			scanH.Record(time.Since(t0))
		}
		ex := &query.Executor{Store: st, Now: horizon}
		for i := 0; i < 50; i++ {
			at := rng.Int63n(int64(horizon))
			t0 := time.Now()
			if _, err := ex.Run(fmt.Sprintf(
				"SELECT entity, value FROM value ASOF %d LIMIT 10", at)); err != nil {
				panic(err)
			}
			langH.Record(time.Since(t0))
		}
		perSec := 0.0
		if m := asofH.Mean(); m > 0 {
			perSec = float64(time.Second) / float64(m)
		}
		tab.AddRow(n, curH.Mean().String(), asofH.Mean().String(),
			scanH.Mean().String(), langH.Mean().String(), perSec)
	}
	return tab
}

// populateStore fills a store with n versions spread over 1000 keys via
// replace-semantics puts, returning the store, the key names, and the
// time horizon.
func populateStore(n int) (*state.Store, []string, temporal.Instant) {
	st := state.NewStore()
	const keyCount = 1000
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("entity%04d", i)
	}
	clock := make([]temporal.Instant, keyCount)
	rng := rand.New(rand.NewSource(3))
	var horizon temporal.Instant
	for i := 0; i < n; i++ {
		k := rng.Intn(keyCount)
		clock[k] += temporal.Instant(1 + rng.Int63n(1000))
		if clock[k] > horizon {
			horizon = clock[k]
		}
		if err := st.Replace(keys[k], "value", element.Int(rng.Int63n(1_000_000)), clock[k]); err != nil {
			panic(err)
		}
	}
	return st, keys, horizon + 1
}
