package state

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/element"
)

// TestScanUnderIngestLinearizableCut is the snapshot-epoch correctness
// stress (run it with -race): 8 parallel writers each own a disjoint key
// range and write their keys round-robin with a strictly increasing round
// number, while scanners continuously List and Scan the whole store.
//
// Because each writer is sequential and default-clock writes become
// visible in reservation order, every scan must observe, per writer, a
// prefix of that writer's ingest: round values non-increasing in key
// order with a gap of at most one (the writer's in-progress round). Any
// torn cut — a later write visible while an earlier one of the same
// writer is not — breaks the pattern and fails the test. This is the
// linearizable-cut check: each observed cut equals some serial prefix of
// each writer's ingest, i.e. a prefix of a legal interleaving.
func TestScanUnderIngestLinearizableCut(t *testing.T) {
	st := NewStore()
	const (
		writers = 8
		keys    = 12
		rounds  = 150
	)

	var wg, scanWG sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 1; round <= rounds; round++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("w%d-k%02d", w, k)
					if err := st.Put(key, "v", element.Int(int64(round))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(w)
	}

	checkCut := func(kind string, facts []*element.Fact) {
		vals := make(map[string]int64, len(facts))
		for _, f := range facts {
			if f.IsCurrent() {
				vals[f.Entity] = f.Value.MustInt()
			}
		}
		for w := 0; w < writers; w++ {
			prev := int64(rounds + 1)
			var hi, lo int64 = 0, rounds + 1
			for k := 0; k < keys; k++ {
				v := vals[fmt.Sprintf("w%d-k%02d", w, k)] // 0 when not yet written
				if v > prev {
					t.Errorf("%s: torn cut for writer %d: key %d at round %d after round %d",
						kind, w, k, v, prev)
					return
				}
				prev = v
				if v > hi {
					hi = v
				}
				if v < lo {
					lo = v
				}
			}
			if hi-lo > 1 {
				t.Errorf("%s: cut spans rounds %d..%d for writer %d (want at most one in-progress round)",
					kind, lo, hi, w)
				return
			}
		}
	}

	for r := 0; r < 2; r++ {
		scanWG.Add(1)
		go func(r int) {
			defer scanWG.Done()
			for !stop.Load() {
				if r == 0 {
					checkCut("list", st.List(WithAttribute("v")))
				} else {
					checkCut("scan", st.Scan(func(f *element.Fact) bool { return f.IsCurrent() }))
				}
			}
		}(r)
	}

	// A pinned handle must render the identical cut every time it is
	// re-read, no matter how much commits around it.
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for !stop.Load() {
			snap := st.Snapshot()
			first := fmt.Sprint(snap.List(WithAttribute("v")))
			for i := 0; i < 3; i++ {
				if again := fmt.Sprint(snap.List(WithAttribute("v"))); again != first {
					t.Error("pinned snapshot cut changed between re-reads")
					return
				}
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	scanWG.Wait()

	checkCut("final", st.List(WithAttribute("v")))
	for w := 0; w < writers; w++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("w%d-k%02d", w, k)
			f, ok := st.Find(key, "v")
			if !ok || f.Value.MustInt() != rounds {
				t.Fatalf("lost update on %s: %v", key, f)
			}
		}
	}
}

// TestReaderNeverBlocksWriter is the deterministic no-reader-blocks-
// writer proof: a Scan is paused MIDWAY through its gather (its predicate
// blocks on a channel) and a writer must still commit. Under the
// pre-epoch lock-all gather the Put would wait for the scan to finish and
// the test would time out; with published heads the writer never touches
// a reader's lock. The same holds for a WriteSnapshot gather.
func TestReaderNeverBlocksWriter(t *testing.T) {
	st := NewStore()
	for i := 0; i < 256; i++ {
		if err := st.Put(fmt.Sprintf("e%03d", i), "v", element.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		first := true
		st.Scan(func(f *element.Fact) bool {
			if first {
				first = false
				close(entered)
				<-release
			}
			return true
		})
	}()

	<-entered // the scan is now mid-gather and will stay there
	putDone := make(chan error, 1)
	go func() { putDone <- st.Put("e000", "v", element.Int(999)) }()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("put during paused scan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked behind an in-flight scan")
	}
	close(release)
	<-scanDone

	// Writer latency stays bounded under a continuously spinning scanner.
	var stop atomic.Bool
	var scans atomic.Int64
	var scanWG sync.WaitGroup
	firstScan := make(chan struct{})
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for !stop.Load() {
			st.List()
			if scans.Add(1) == 1 {
				close(firstScan)
			}
		}
	}()
	<-firstScan // the scanner is demonstrably running before we measure
	var worst time.Duration
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := st.Put(fmt.Sprintf("e%03d", i%256), "v", element.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	stop.Store(true)
	scanWG.Wait()
	// Lock-free puts take microseconds; a generous absolute bound still
	// catches any regression to scans holding shard locks for the gather.
	if worst > 250*time.Millisecond {
		t.Fatalf("worst put latency %v under a spinning scanner", worst)
	}
	if scans.Load() == 0 {
		t.Fatal("scanner made no progress")
	}
}

// TestStatsLockFreeUnderIngest drives Stats concurrently with writers:
// the atomic counters must never tear (negative or wildly inconsistent
// totals) and the call must not serialize against the write path.
func TestStatsLockFreeUnderIngest(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				if err := st.Put(fmt.Sprintf("w%d-k%02d", w, i%32), "v", element.Int(int64(i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for !stop.Load() {
			s := st.Stats()
			if s.Keys < 0 || s.Versions < 0 || s.Records < 0 || s.Keys > 4*32 {
				t.Errorf("torn stats: %+v", s)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	readerWG.Wait()

	s := st.Stats()
	if s.Keys != 4*32 || s.Versions != s.Records-s.Superseded || s.Current != 4*32 {
		t.Fatalf("final stats: %+v", s)
	}
}
