package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestShardCountRounding pins the shard-count policy: powers of two, a
// single-lock layout at 1, and a GOMAXPROCS-scaled default.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewStoreWithShards(tc.in).ShardCount(); got != tc.want {
			t.Errorf("NewStoreWithShards(%d).ShardCount() = %d, want %d", tc.in, got, tc.want)
		}
	}
	def := NewStore().ShardCount()
	if def < 8 || def&(def-1) != 0 {
		t.Errorf("default shard count %d: want a power of two >= 8", def)
	}
	if got := NewStore().Stats().Shards; got != def {
		t.Errorf("Stats().Shards = %d, want %d", got, def)
	}
}

// TestShardDistribution checks that FNV-1a spreads realistic lineage keys
// across shards instead of piling them onto a few stripes.
func TestShardDistribution(t *testing.T) {
	const shards = 16
	st := NewStoreWithShards(shards)
	counts := make([]int, shards)
	const keys = 4096
	for i := 0; i < keys; i++ {
		counts[shardIndex(fmt.Sprintf("entity-%d", i), "position", st.shardMask)]++
	}
	// Expect roughly keys/shards per stripe; flag anything further than
	// 2x from uniform, which FNV-1a comfortably beats on this key shape.
	for i, c := range counts {
		if c < keys/shards/2 || c > keys/shards*2 {
			t.Errorf("shard %d holds %d of %d keys (uniform would be %d)", i, c, keys, keys/shards)
		}
	}
}

// TestShardedEquivalence is the differential test for the shard refactor:
// the same deterministic mixed workload applied to a single-lock store
// and a many-shard store must produce bit-identical bitemporal state —
// records, belief intervals, stats, and query results.
func TestShardedEquivalence(t *testing.T) {
	run := func(st *Store) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			entity := fmt.Sprintf("e%03d", rng.Intn(64))
			attr := []string{"position", "badge", "load"}[rng.Intn(3)]
			tx := temporal.Instant(i + 1)
			switch rng.Intn(5) {
			case 0: // retroactive bounded correction
				from := temporal.Instant(rng.Intn(i + 1))
				if err := st.Put(entity, attr, element.Int(int64(i)),
					WithValidTime(from), WithEndValidTime(from+temporal.Instant(1+rng.Intn(40))),
					WithTransactionTime(tx)); err != nil {
					t.Fatalf("retro put: %v", err)
				}
			case 1: // retroactive delete
				from := temporal.Instant(rng.Intn(i + 1))
				if err := st.Delete(entity, attr, WithValidTime(from),
					WithEndValidTime(from+temporal.Instant(1+rng.Intn(20))),
					WithTransactionTime(tx)); err != nil {
					t.Fatalf("retro delete: %v", err)
				}
			default: // forward replace
				if err := st.Put(entity, attr, element.Int(int64(i)),
					WithValidTime(tx), WithTransactionTime(tx)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
		}
	}
	single := NewStoreWithShards(1)
	sharded := NewStoreWithShards(32)
	run(single)
	run(sharded)
	assertBitemporalEqual(t, single, sharded)

	ss, hs := single.Stats(), sharded.Stats()
	ss.Shards, hs.Shards = 0, 0
	if ss != hs {
		t.Errorf("stats diverge: single %+v sharded %+v", ss, hs)
	}
	if got, want := sharded.List(), single.List(); len(got) != len(want) {
		t.Errorf("List diverges: %d vs %d", len(got), len(want))
	}
	if got, want := sharded.List(AsOfValidTime(500), AsOfTransactionTime(1000)),
		single.List(AsOfValidTime(500), AsOfTransactionTime(1000)); len(got) != len(want) {
		t.Errorf("pinned List diverges: %d vs %d", len(got), len(want))
	}
}

// TestShardedStress hammers a sharded store from concurrent writers
// (Put/Delete with explicit per-writer transaction times), point readers,
// and a wildcard List racing WriteSnapshot. It asserts the
// two properties the shard refactor must preserve under -race:
//
//   - no lost updates: after the run, every key holds the last value its
//     writer put (writers own disjoint key ranges);
//   - consistent snapshot views: every snapshot taken mid-run restores
//     into a store whose per-key beliefs are ordered and disjoint, and
//     List never observes a torn per-key state.
func TestShardedStress(t *testing.T) {
	st := NewStore()
	const (
		writers      = 4
		keysPerWrite = 32
		ops          = 400
		horizon      = temporal.Instant(1 << 20)
	)

	var writerWG, bgWG sync.WaitGroup
	var stop atomic.Bool
	finals := make([][]int64, writers)

	for w := 0; w < writers; w++ {
		finals[w] = make([]int64, keysPerWrite)
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < ops; i++ {
				k := i % keysPerWrite
				key := fmt.Sprintf("w%d-k%d", w, k)
				// Per-writer monotonic transaction times keep the run
				// deterministic per lineage; writers interleave freely.
				tx := horizon + temporal.Instant(w*ops+i)
				val := int64(w*ops + i)
				if err := st.Put(key, "v", element.Int(val),
					WithValidTime(temporal.Instant(i)), WithTransactionTime(tx)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				finals[w][k] = val
				if i%7 == 3 {
					// Retroactive delete of a slice of history well below
					// the open version's start.
					if err := st.Delete(key, "v",
						WithValidTime(temporal.Instant(i/2)), WithEndValidTime(temporal.Instant(i/2+1)),
						WithTransactionTime(tx)); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Point readers: per-key belief must always be ordered and disjoint.
	for r := 0; r < 2; r++ {
		bgWG.Add(1)
		go func(r int) {
			defer bgWG.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("w%d-k%d", i%writers, i%keysPerWrite)
				st.Find(key, "v")
				hist := st.History(key, "v")
				for j := 1; j < len(hist); j++ {
					if hist[j-1].Validity.Overlaps(hist[j].Validity) {
						t.Errorf("overlapping belief for %s: %v %v", key, hist[j-1], hist[j])
						return
					}
				}
			}
		}(r)
	}

	// Wildcard List racing WriteSnapshot: every pinned cut must hold a
	// consistent (non-overlapping) belief.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for i := 0; !stop.Load(); i++ {
			if all := st.List(WithAttribute("v")); len(all) > writers*keysPerWrite {
				t.Errorf("List saw %d live keys for %d lineages", len(all), writers*keysPerWrite)
				return
			}
			snap := st.Snapshot()
			var buf bytes.Buffer
			if err := snap.WriteSnapshot(&buf); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			for w := 0; w < writers; w++ {
				for k := 0; k < keysPerWrite; k++ {
					key := fmt.Sprintf("w%d-k%d", w, k)
					hist := st.History(key, "v", AsOfTransactionTime(snap.At()))
					for j := 1; j < len(hist); j++ {
						if hist[j-1].Validity.Overlaps(hist[j].Validity) {
							t.Errorf("pinned cut has overlapping belief for %s", key)
							return
						}
					}
				}
			}
		}
	}()

	writerWG.Wait()
	stop.Store(true)
	bgWG.Wait()

	// No lost updates: every key ends at its writer's last value.
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPerWrite; k++ {
			key := fmt.Sprintf("w%d-k%d", w, k)
			f, ok := st.Find(key, "v")
			if !ok {
				t.Fatalf("key %s lost entirely", key)
			}
			if f.Value.MustInt() != finals[w][k] {
				t.Errorf("lost update on %s: got %d want %d", key, f.Value.MustInt(), finals[w][k])
			}
		}
	}
	if st.Stats().Superseded == 0 {
		t.Error("stress run should leave superseded records")
	}
}
