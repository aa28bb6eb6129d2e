package bench

import (
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// buildBitemporalStore builds a store with versioned history and a layer
// of retroactive corrections, so reads pay the realistic cost of the
// transaction-time dimension (superseded records interleaved with
// believed ones).
func buildBitemporalStore(keys, versions, corrections int) *state.Store {
	st := state.NewStore()
	for k := 0; k < keys; k++ {
		name := fmt.Sprintf("k%06d", k)
		for v := 0; v < versions; v++ {
			at := temporal.Instant(v * 100)
			if err := st.Put(name, "v", element.Int(int64(v)),
				state.WithValidTime(at), state.WithTransactionTime(at)); err != nil {
				panic(err)
			}
		}
	}
	// Retroactive corrections recorded after the whole history.
	txBase := temporal.Instant(versions * 100)
	for c := 0; c < corrections; c++ {
		name := fmt.Sprintf("k%06d", c%keys)
		from := temporal.Instant((c % versions) * 100)
		if err := st.Put(name, "v", element.Int(int64(-c)),
			state.WithValidTime(from), state.WithEndValidTime(from+50),
			state.WithTransactionTime(txBase+temporal.Instant(c))); err != nil {
			panic(err)
		}
	}
	return st
}

// BenchmarkBitemporalFind is the e7 state-store experiment's
// microbenchmark face: the per-read cost of the bitemporal dimension,
// from day one of the StateDB API. Current-belief point reads stay on
// the binary-searched live index; transaction-time-pinned reads scan the
// record history.
func BenchmarkBitemporalFind(b *testing.B) {
	const (
		keys        = 1_000
		versions    = 16
		corrections = 2_000
	)
	st := buildBitemporalStore(keys, versions, corrections)
	midValid := temporal.Instant(versions / 2 * 100)
	midTx := temporal.Instant(versions * 100) // before any correction

	b.Run("current", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("k%06d", i%keys)
			if _, ok := st.Find(name, "v"); !ok {
				b.Fatal("missing current version")
			}
		}
	})
	b.Run("asof-valid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("k%06d", i%keys)
			if _, ok := st.Find(name, "v", state.AsOfValidTime(midValid)); !ok {
				b.Fatal("missing as-of version")
			}
		}
	})
	b.Run("asof-system-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("k%06d", i%keys)
			if _, ok := st.Find(name, "v",
				state.AsOfValidTime(midValid), state.AsOfTransactionTime(midTx)); !ok {
				b.Fatal("missing belief version")
			}
		}
	})
	b.Run("history", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("k%06d", i%keys)
			if got := st.History(name, "v"); len(got) == 0 {
				b.Fatal("missing history")
			}
		}
	})
}
