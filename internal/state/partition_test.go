package state

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// partitionSeedStore builds a store with enough lineage variety to
// exercise every gather shape: several attributes, retroactive
// corrections, closed versions, deletes, and a non-numeric attribute.
func partitionSeedStore(t *testing.T, keys int) *Store {
	t.Helper()
	st := NewStore()
	for i := 0; i < keys; i++ {
		ent := fmt.Sprintf("e%03d", i)
		if err := st.Replace(ent, "value", element.Int(int64(i)), temporal.Instant(10+i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := st.Replace(ent, "room", element.String(fmt.Sprintf("r%d", i%5)), temporal.Instant(20+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Retroactive shapes: a correction, a bounded version, a retraction.
	if err := st.Put("e001", "value", element.Int(500),
		WithValidTime(12), WithEndValidTime(30)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("e002", "value", WithValidTime(15)); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestScanShardsMatchesList is the partitioned-gather equivalence oracle
// at the store layer: for every temporal shape and every parallelism,
// ScanShards through a snapshot returns exactly Snapshot.List.
func TestScanShardsMatchesList(t *testing.T) {
	st := partitionSeedStore(t, 200)
	snap := st.Snapshot()
	shapes := []struct {
		name string
		opts []ReadOpt
	}{
		{"current-all", nil},
		{"current-attr", []ReadOpt{WithAttribute("value")}},
		{"asof", []ReadOpt{WithAttribute("value"), AsOfValidTime(25)}},
		{"during", []ReadOpt{DuringValidTime(10, 60)}},
		{"history", []ReadOpt{WithAttribute("value"), AllVersions()}},
		{"systime", []ReadOpt{AsOfTransactionTime(100)}},
		{"asof-systime", []ReadOpt{WithAttribute("value"), AsOfValidTime(25), AsOfTransactionTime(120)}},
		{"missing-attr", []ReadOpt{WithAttribute("nope")}},
	}
	for _, sh := range shapes {
		want := snap.List(sh.opts...)
		for _, par := range []int{0, 1, 2, 3, 7, 64, 1000} {
			got := snap.ScanShards(par, sh.opts...)
			if len(got) != len(want) {
				t.Fatalf("%s par=%d: %d facts, want %d", sh.name, par, len(got), len(want))
			}
			for i := range got {
				if *got[i] != *want[i] {
					t.Fatalf("%s par=%d fact %d: %+v, want %+v", sh.name, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScanPartitionedEnvelopePrune checks the value-envelope prune:
// numeric lineages outside the bounds are skipped (and counted), the
// survivors match a Keep-equivalent serial filter, and non-numeric
// lineages are never pruned.
func TestScanPartitionedEnvelopePrune(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		ent := fmt.Sprintf("e%03d", i)
		if err := st.Replace(ent, "value", element.Int(int64(i)), temporal.Instant(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	// A non-numeric lineage under the same attribute: its envelope is
	// unusable, so bounds must never prune it.
	if err := st.Replace("word", "value", element.String("ninety"), 200); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()

	bounds := ValueBounds{Min: 90, HasMin: true, MinExcl: true} // value > 90
	facts, stats := snap.ScanPartitioned(ScanSpec{
		Opts:   []ReadOpt{WithAttribute("value")},
		Bounds: bounds,
	})
	if stats.Lineages != 101 {
		t.Fatalf("lineages = %d, want 101", stats.Lineages)
	}
	if stats.IndexPruned != 91 { // e000..e090 pruned; e091..e099 + word kept
		t.Fatalf("pruned = %d, want 91", stats.IndexPruned)
	}
	if len(facts) != 10 {
		t.Fatalf("got %d facts, want 10 (9 numeric + 1 non-numeric)", len(facts))
	}
	for _, f := range facts {
		if n, ok := f.Value.AsFloat(); ok && n <= 90 {
			t.Fatalf("pruned scan leaked value %v", f.Value)
		}
	}

	// A retroactive correction must widen the envelope: e005 gains a
	// historical value 95, so value > 90 may no longer prune it.
	if err := st.Put("e005", "value", element.Int(95),
		WithValidTime(11), WithEndValidTime(12)); err != nil {
		t.Fatal(err)
	}
	_, stats = st.Snapshot().ScanPartitioned(ScanSpec{
		Opts:   []ReadOpt{WithAttribute("value"), AllVersions()},
		Bounds: bounds,
	})
	if stats.IndexPruned != 90 {
		t.Fatalf("after widening correction pruned = %d, want 90", stats.IndexPruned)
	}
}

// TestScanPartitionedKeep checks the pushed row predicate runs inside
// the gather and composes with bounds, preserving order.
func TestScanPartitionedKeep(t *testing.T) {
	st := partitionSeedStore(t, 120)
	snap := st.Snapshot()
	keep := func(f *element.Fact) bool {
		n, ok := f.Value.AsFloat()
		return ok && n >= 30 && int64(n)%2 == 0
	}
	want := []*element.Fact{}
	for _, f := range snap.List(WithAttribute("value")) {
		if keep(f) {
			want = append(want, f)
		}
	}
	for _, par := range []int{1, 4} {
		got, _ := snap.ScanPartitioned(ScanSpec{
			Opts:        []ReadOpt{WithAttribute("value")},
			Parallelism: par,
			Bounds:      ValueBounds{Min: 30, HasMin: true},
			Keep:        keep,
		})
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d facts, want %d", par, len(got), len(want))
		}
		for i := range got {
			if *got[i] != *want[i] {
				t.Fatalf("par=%d fact %d: %+v, want %+v", par, i, got[i], want[i])
			}
		}
	}
}

// TestValueBoundsDisjoint pins the envelope-overlap arithmetic,
// including the exclusive-bound edge cases.
func TestValueBoundsDisjoint(t *testing.T) {
	cases := []struct {
		b        ValueBounds
		lo, hi   float64
		disjoint bool
	}{
		{ValueBounds{}, 0, 10, false},
		{ValueBounds{Min: 5, HasMin: true}, 0, 4, true},
		{ValueBounds{Min: 5, HasMin: true}, 0, 5, false},
		{ValueBounds{Min: 5, HasMin: true, MinExcl: true}, 0, 5, true},
		{ValueBounds{Max: 5, HasMax: true}, 6, 10, true},
		{ValueBounds{Max: 5, HasMax: true}, 5, 10, false},
		{ValueBounds{Max: 5, HasMax: true, MaxExcl: true}, 5, 10, true},
		{ValueBounds{Min: 3, HasMin: true, Max: 7, HasMax: true}, 4, 5, false},
		{ValueBounds{Min: 3, HasMin: true, Max: 7, HasMax: true}, 8, 9, true},
	}
	for i, c := range cases {
		if got := c.b.disjoint(c.lo, c.hi); got != c.disjoint {
			t.Errorf("case %d: disjoint(%v, %v) = %v, want %v", i, c.lo, c.hi, got, c.disjoint)
		}
	}
}

// TestScanPartitionedUnderIngest races partitioned scans against batch
// ingest (run with -race). The byte-identical oracle compares the two
// gathers at a quiesced belief instant — the writer publishes its last
// fully committed transaction time, and belief at (or before) that
// instant is immutable under later writes, so serial and partitioned
// scans taken at different moments must still agree exactly. Scans of
// the live (unpinned-instant) belief run alongside purely to shake out
// data races.
func TestScanPartitionedUnderIngest(t *testing.T) {
	st := NewStore()
	const keys = 256
	for i := 0; i < keys; i++ {
		if err := st.Replace(fmt.Sprintf("e%03d", i), "value", element.Int(int64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	var committed atomic.Int64 // last fully committed transaction time
	committed.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := temporal.Instant(10)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			puts := make([]BatchPut, 0, keys/2)
			for i := round % 2; i < keys; i += 2 {
				puts = append(puts, BatchPut{
					Entity: fmt.Sprintf("e%03d", i), Attr: "value",
					Value: element.Int(int64(round*keys + i)), At: tick,
				})
			}
			if err := st.PutBatch(puts); err != nil {
				t.Error(err)
				return
			}
			committed.Store(int64(tick))
			tick++
		}
	}()
	var scanners sync.WaitGroup
	for w := 0; w < 2; w++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for r := 0; r < 50; r++ {
				cut := temporal.Instant(committed.Load())
				snap := st.Snapshot()
				want := snap.List(WithAttribute("value"), AsOfTransactionTime(cut))
				got := snap.ScanShards(4, WithAttribute("value"), AsOfTransactionTime(cut))
				if len(got) != len(want) {
					t.Errorf("round %d: partitioned %d facts, serial %d", r, len(got), len(want))
					return
				}
				for i := range got {
					if *got[i] != *want[i] {
						t.Errorf("round %d fact %d: %+v, want %+v", r, i, got[i], want[i])
						return
					}
				}
				// Live-belief scans: result is timing-dependent, but the
				// gather must be race-free and well-formed.
				if live := snap.ScanShards(4, WithAttribute("value")); len(live) < keys/2 {
					t.Errorf("round %d: live scan lost lineages: %d", r, len(live))
					return
				}
			}
		}()
	}
	scanners.Wait()
	close(stop)
	wg.Wait()
}
