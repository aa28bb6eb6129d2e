package state

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestConcurrentReadersAndWriters hammers the store from parallel
// writers (disjoint key ranges, so per-key monotonicity holds) and
// parallel readers running the full read API. Run with -race; the test
// also checks reader-visible invariants (per-key version ordering).
func TestConcurrentReadersAndWriters(t *testing.T) {
	st := NewStore()
	const (
		writers       = 4
		keysPerWriter = 50
		opsPerWriter  = 500
		readers       = 4
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%keysPerWriter)
				at := temporal.Instant(i)
				switch i % 5 {
				case 4:
					_ = st.Delete(key, "v", WithValidTime(at), WithTransactionTime(at))
				default:
					if err := st.Replace(key, "v", element.Int(int64(i)), at); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(w)
	}

	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			// stop is checked at the end of the body, so every reader
			// completes an iteration even when all writers finish
			// before it is first scheduled.
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%d-k%d", i%writers, i%keysPerWriter)
				st.Find(key, "v")
				st.Find(key, "v", AsOfValidTime(temporal.Instant(i%opsPerWriter)))
				if i%50 == 0 {
					st.List(WithAttribute("v"))
					st.List(AsOfValidTime(temporal.Instant(i % opsPerWriter)))
					st.Stats()
				}
				hist := st.History(key, "v")
				for j := 1; j < len(hist); j++ {
					if hist[j-1].Validity.Overlaps(hist[j].Validity) {
						t.Errorf("reader saw overlapping versions for %s", key)
						return
					}
				}
				reads.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if reads.Load() == 0 {
		t.Error("readers never ran")
	}
	stats := st.Stats()
	if stats.Keys == 0 || stats.Versions == 0 {
		t.Errorf("stats after run: %+v", stats)
	}
}

// TestConcurrentViews checks that a point-in-time view — a snapshot
// handle read as of its own pin in valid time — stays stable while
// later-timestamped writes land concurrently.
func TestConcurrentViews(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		st.Replace("e", "v", element.Int(int64(i)), temporal.Instant(i*10))
	}
	view := st.SnapshotAt(500)
	want, ok := view.Find("e", "v", AsOfValidTime(500))
	if !ok {
		t.Fatal("view get")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 100; i < 200; i++ {
			st.Replace("e", "v", element.Int(int64(i)), temporal.Instant(i*10))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			got, ok := view.Find("e", "v", AsOfValidTime(500))
			if !ok || !got.Value.Equal(want.Value) {
				t.Errorf("view drifted: %v", got)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentRetroactiveWrites hammers the store with retroactive
// corrections (out-of-order valid times through the option API) on
// per-writer key ranges while readers pin a transaction time below every
// correction: their view must never change, and default reads must always
// see a disjoint, ordered belief.
func TestConcurrentRetroactiveWrites(t *testing.T) {
	st := NewStore()
	const (
		writers = 4
		keys    = 16
		ops     = 300
		baseTx  = temporal.Instant(1000)
	)
	// Seed a stable prefix: every key holds its index since t=0,
	// recorded no later than baseTx.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		if err := st.Put(key, "v", element.Int(int64(k)), WithValidTime(0), WithTransactionTime(baseTx)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (w*keys/writers)+(i%(keys/writers)))
				tx := baseTx + temporal.Instant(1+i)
				// Retroactive bounded correction somewhere in [1, 500).
				from := temporal.Instant(1 + (i*7)%400)
				if err := st.Put(key, "v", element.Int(int64(i)),
					WithValidTime(from), WithEndValidTime(from+50), WithTransactionTime(tx)); err != nil {
					t.Errorf("retro put: %v", err)
					return
				}
				if i%9 == 0 {
					if err := st.Delete(key, "v", WithValidTime(from+10),
						WithEndValidTime(from+20), WithTransactionTime(tx+1)); err != nil {
						t.Errorf("retro delete: %v", err)
						return
					}
				}
			}
		}(w)
	}

	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", i%keys)
				// Pinned belief: the seed state must be frozen forever.
				f, ok := st.Find(key, "v", AsOfValidTime(250), AsOfTransactionTime(baseTx))
				if !ok || f.Value.MustInt() != int64(i%keys) {
					t.Errorf("pinned read drifted for %s: %v %v", key, f, ok)
					return
				}
				// Default belief: whatever it is now, it must be consistent.
				hist := st.History(key, "v")
				for j := 1; j < len(hist); j++ {
					if hist[j-1].Validity.Overlaps(hist[j].Validity) {
						t.Errorf("reader saw overlapping belief for %s: %v %v", key, hist[j-1], hist[j])
						return
					}
				}
				if i%100 == 0 {
					st.List(WithAttribute("v"), AsOfValidTime(250), AsOfTransactionTime(baseTx))
				}
				reads.Add(1)
			}
		}(r)
	}

	wg.Wait()
	if reads.Load() == 0 {
		t.Error("readers never ran")
	}
	if st.Stats().Superseded == 0 {
		t.Error("retroactive writes should leave superseded records")
	}
}

// TestWatcherOrdering checks that watcher callbacks observe changes in
// mutation order even with concurrent readers present.
func TestWatcherOrdering(t *testing.T) {
	st := NewStore()
	var seen []temporal.Instant
	st.WatchBatch(func(cs []Change) {
		for _, c := range cs {
			if c.Kind == Asserted {
				seen = append(seen, c.At)
			}
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			st.List()
		}
	}()
	for i := 0; i < 100; i++ {
		st.Replace("e", "v", element.Int(int64(i)), temporal.Instant(i))
	}
	wg.Wait()
	if len(seen) != 100 {
		t.Fatalf("watcher saw %d assertions", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("watcher saw out-of-order changes")
		}
	}
}
