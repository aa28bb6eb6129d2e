package segment

import (
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// scanWrites drives the same writes against any StateDB: two bounded
// lineages (one corrected closed, one retracted) and one open lineage.
func scanWrites(t *testing.T, db state.StateDB, openToo bool) {
	t.Helper()
	if err := db.Put("old", "v", element.Int(1),
		state.WithValidTime(10), state.WithEndValidTime(20),
		state.WithTransactionTime(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Transaction times sit above the first durable cut (50): only
	// lineages with writes past the cut are flushed incrementally.
	if err := db.Put("gone", "v", element.Int(2),
		state.WithValidTime(12), state.WithTransactionTime(52)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := db.Delete("gone", "v",
		state.WithValidTime(25), state.WithTransactionTime(55)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if !openToo {
		return
	}
	if err := db.Put("live", "v", element.Int(3),
		state.WithValidTime(15), state.WithTransactionTime(62)); err != nil {
		t.Fatalf("put: %v", err)
	}
}

// scanStore builds a durable store with two segment-only lineages: the
// explicitly bounded one sealed alone in its own segment (its envelope
// holds no open validity, so current-belief scans prune it unread) and
// the retracted one in a second segment whose envelope still spans
// Forever, because frames keep the superseded open record for belief
// pins. Both were evicted from RAM, so List must merge their frames.
func scanStore(t *testing.T) *Store {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	db := d.Mem()
	if err := db.Put("old", "v", element.Int(1),
		state.WithValidTime(10), state.WithEndValidTime(20),
		state.WithTransactionTime(10)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.FlushAt(50); err != nil { // segment A: bounded-only
		t.Fatalf("flush: %v", err)
	}
	if err := db.Put("gone", "v", element.Int(2),
		state.WithValidTime(12), state.WithTransactionTime(52)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Mem().Delete("gone", "v",
		state.WithValidTime(25), state.WithTransactionTime(55)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := d.FlushAt(60); err != nil { // segment B: gone
		t.Fatalf("flush: %v", err)
	}
	// Written after the last flush, so eviction keeps it resident.
	if err := db.Put("live", "v", element.Int(3),
		state.WithValidTime(15), state.WithTransactionTime(62)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if n := d.EvictToBudget(0); n != 2 {
		t.Fatalf("evicted %d lineages, want 2", n)
	}
	if !evicted(d.Mem(), "old", "v") || !evicted(d.Mem(), "gone", "v") {
		t.Fatalf("bounded lineages should be gone from RAM")
	}
	if evicted(d.Mem(), "live", "v") {
		t.Fatalf("open lineage should stay resident")
	}
	return d
}

// TestScanMergesDurableLineages: List below the residency horizon must
// return exactly what a plain store with the same history returns —
// segment-only lineages merged in sorted order — while envelope pruning
// keeps shape-impossible segments unread.
func TestScanMergesDurableLineages(t *testing.T) {
	d := scanStore(t)
	oracle := state.NewStore()
	scanWrites(t, oracle, true)

	shapes := []struct {
		name string
		opts []state.ReadOpt
	}{
		{"asof-past", []state.ReadOpt{state.AsOfValidTime(15)}},
		{"during", []state.ReadOpt{state.DuringValidTime(21, 24)}},
		{"history", []state.ReadOpt{state.AllVersions()}},
		{"history-systime", []state.ReadOpt{state.AllVersions(), state.AsOfTransactionTime(20)}},
		{"current", nil},
	}
	for _, sh := range shapes {
		want := oracle.List(sh.opts...)
		got := d.List(sh.opts...)
		if len(got) != len(want) {
			t.Fatalf("%s: %d facts, want %d\ngot  %v\nwant %v", sh.name, len(got), len(want), got, want)
		}
		for i := range got {
			if *got[i] != *want[i] {
				t.Fatalf("%s fact %d: %+v, want %+v", sh.name, i, got[i], want[i])
			}
		}
	}

	// The scans above read durable frames; a current-belief scan prunes
	// the bounded-only segment unread ("old"), while the retracted
	// lineage's segment must still be read — its envelope spans Forever
	// because frames keep the superseded open record for belief pins —
	// and yields nothing.
	info := d.Info()
	if info.ScanFrames == 0 {
		t.Fatalf("no durable frames were merged into scans: %+v", info)
	}
	before := info
	if cur := d.List(); len(cur) != 1 || cur[0].Entity != "live" {
		t.Fatalf("current scan: want just live")
	}
	after := d.Info()
	if after.ScanFrames != before.ScanFrames+1 {
		t.Fatalf("current scan read %d frames, want 1 (bounded segment pruned)",
			after.ScanFrames-before.ScanFrames)
	}
	if after.ScanFramesPruned != before.ScanFramesPruned+1 {
		t.Fatalf("current scan pruned %d frames, want 1",
			after.ScanFramesPruned-before.ScanFramesPruned)
	}

	// A belief pinned before anything durable was recorded prunes both
	// frames too.
	if got := d.List(state.AsOfTransactionTime(5)); len(got) != 0 {
		t.Fatalf("early belief scan: %v, want nothing", got)
	}
	if final := d.Info(); final.ScanFrames != after.ScanFrames {
		t.Fatalf("early belief scan read frames past the tx envelope")
	}
}

// TestResidentScanSkipsCatalog: a selective scan of an all-resident
// durable store must cost what the same scan of a purely in-memory store
// costs — no allocation, frame read, or envelope test spent on the
// catalog, however many segments it holds. Counting allocations and
// frames instead of time makes the guard independent of the hardware.
func TestResidentScanSkipsCatalog(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	// Each flush writes its own sensors, so no segment goes dead.
	const flushes, sensors = 10, 200
	for r := 0; r < flushes; r++ {
		puts := make([]state.BatchPut, 0, sensors)
		for i := 0; i < sensors; i++ {
			puts = append(puts, state.BatchPut{
				Entity: fmt.Sprintf("r%02d-s%03d", r, i), Attr: "temperature",
				Value: element.Float(float64((i*7+r*13)%100) + 0.95), At: temporal.Instant(r*sensors + i + 1),
			})
		}
		if err := d.Mem().PutBatch(puts); err != nil {
			t.Fatalf("putbatch: %v", err)
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush %d: %v", r, err)
		}
	}
	if n := d.Info().Segments; n < 8 {
		t.Fatalf("want >= 8 segments, got %d", n)
	}
	sn := d.Mem().Snapshot()
	spec := state.ScanSpec{
		Opts:        []state.ReadOpt{state.WithAttribute("temperature")},
		Bounds:      state.ValueBounds{Min: 98.9, HasMin: true, MinExcl: true},
		Parallelism: 1,
	}
	before := d.Info()
	rows, stats := sn.ScanPartitioned(spec)
	if len(rows) == 0 || stats.IndexPruned == 0 {
		t.Fatalf("scan is not selective: %d rows, %+v", len(rows), stats)
	}
	if stats.ColdLineages != 0 {
		t.Fatalf("all-resident scan unioned %d cold lineages", stats.ColdLineages)
	}
	if after := d.Info(); after.ScanFrames != before.ScanFrames || after.ScanFramesPruned != before.ScanFramesPruned {
		t.Fatalf("all-resident scan touched the catalog: frames %d→%d, pruned %d→%d",
			before.ScanFrames, after.ScanFrames, before.ScanFramesPruned, after.ScanFramesPruned)
	}
	scan := func() { sn.ScanPartitioned(spec) }
	withCatalog := testing.AllocsPerRun(50, scan)
	d.Mem().SetColdSource(nil)
	detached := testing.AllocsPerRun(50, scan)
	d.Mem().SetColdSource(d)
	if withCatalog > detached {
		t.Fatalf("all-resident scan allocates %.0f/op with the catalog attached, %.0f/op without", withCatalog, detached)
	}
}

// TestColdScanAllocsPerRow: a scan over evicted lineages allocates for
// the rows it returns, not for the frames it reads. Every gather decodes
// its frames into scratch it reuses, so the heap cost per returned row
// is the row's clone plus a share of the per-scan slices — whatever the
// length of the lineage history behind it. Point reads, histories and
// fault-in of an evicted key load through the same path on fixed
// budgets.
func TestColdScanAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	const lineages, versions = 500, 10
	var mid temporal.Instant
	for v := 0; v < versions; v++ {
		puts := make([]state.BatchPut, 0, lineages)
		for i := 0; i < lineages; i++ {
			puts = append(puts, state.BatchPut{
				Entity: fmt.Sprintf("s%03d", i), Attr: "temperature",
				Value: element.Float(float64(i*versions + v)), At: temporal.Instant(v*lineages + i + 1),
			})
		}
		if err := d.Mem().PutBatch(puts); err != nil {
			t.Fatalf("putbatch: %v", err)
		}
		if v == versions/2 {
			mid = d.Mem().Stats().TxHigh
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := d.EvictToBudget(0); n != lineages {
		t.Fatalf("evicted %d lineages, want %d", n, lineages)
	}
	sn := d.Mem().Snapshot()
	for _, tc := range []struct {
		name string
		opts []state.ReadOpt
	}{
		{"current", nil},
		{"asof-tx", []state.ReadOpt{state.AsOfTransactionTime(mid)}},
	} {
		for _, par := range []int{1, 2} {
			spec := state.ScanSpec{Opts: tc.opts, Parallelism: par}
			rows, stats := sn.ScanPartitioned(spec)
			if stats.Err != nil || len(rows) != lineages || stats.ColdLineages != lineages {
				t.Fatalf("%s par=%d: %d rows, %+v", tc.name, par, len(rows), stats)
			}
			allocs := testing.AllocsPerRun(20, func() { sn.ScanPartitioned(spec) })
			if perRow := allocs / lineages; perRow > 2 {
				t.Errorf("%s par=%d: %.2f allocations per returned row, budget 2", tc.name, par, perRow)
			}
		}
	}
	// Point reads, histories and a write that faults an evicted key in
	// resolve and decode through the same loader as the scans, each into
	// its own fresh scratch, whose belief slice is sized once from the
	// believed-record count. Each budget is the measured count plus 1:
	// Find 8, Find as of a transaction time 8, Snapshot.FindValue 6,
	// History 19, History(AllVersions) 27, and 16 for the Put that faults
	// the key in.
	mem := d.Mem()
	const probe = "s250"
	if _, ok := mem.Find(probe, "temperature"); !ok {
		t.Fatalf("Find(%s) found nothing", probe)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		read   func()
	}{
		{"Find", 9, func() { mem.Find(probe, "temperature") }},
		{"Find-asof-tx", 9, func() { mem.Find(probe, "temperature", state.AsOfTransactionTime(mid)) }},
		{"Snapshot.FindValue", 7, func() { sn.FindValue(probe, "temperature", state.ReadSpec{}) }},
		{"History", 20, func() { mem.History(probe, "temperature") }},
		{"History-all", 28, func() { mem.History(probe, "temperature", state.AllVersions()) }},
	} {
		if allocs := testing.AllocsPerRun(20, tc.read); allocs > tc.budget {
			t.Errorf("%s of an evicted key: %.0f allocations, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
	const writes = 20
	entities := make([]string, writes+1) // AllocsPerRun adds a warm-up run
	for i := range entities {
		entities[i] = fmt.Sprintf("s%03d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(writes, func() {
		if err := mem.Put(entities[next], "temperature", element.Float(-1)); err != nil {
			t.Fatalf("put: %v", err)
		}
		next++
	})
	if got, want := mem.EvictedCount(), lineages-len(entities); got != want {
		t.Fatalf("%d keys still evicted after %d fault-ins, want %d", got, len(entities), want)
	}
	if allocs > 17 {
		t.Errorf("write faulting in an evicted key: %.0f allocations, budget 17", allocs)
	}
}

// TestScanPruneShapes pins the envelope arithmetic per scan shape.
func TestScanPruneShapes(t *testing.T) {
	env := envelope{minValid: 10, maxValid: 30, minTx: 10, maxTx: 25}
	open := envelope{minValid: 10, maxValid: temporal.Forever, minTx: 10, maxTx: 25}
	cases := []struct {
		name  string
		env   envelope
		shape state.ScanShape
		prune bool
	}{
		{"tx-before-anything", env, state.ScanShape{HasTxAt: true, TxAt: 5}, true},
		{"tx-inside", env, state.ScanShape{HasTxAt: true, TxAt: 15, AllVersions: true}, false},
		{"valid-below", env, state.ScanShape{HasValidAt: true, ValidAt: 5}, true},
		{"valid-at-max", env, state.ScanShape{HasValidAt: true, ValidAt: 30}, true},
		{"valid-inside", env, state.ScanShape{HasValidAt: true, ValidAt: 15}, false},
		{"during-disjoint-low", env, state.ScanShape{HasDuring: true, During: temporal.Interval{Start: 0, End: 10}}, true},
		{"during-disjoint-high", env, state.ScanShape{HasDuring: true, During: temporal.Interval{Start: 30, End: 40}}, true},
		{"during-overlap", env, state.ScanShape{HasDuring: true, During: temporal.Interval{Start: 25, End: 35}}, false},
		{"current-no-open", env, state.ScanShape{}, true},
		{"current-open", open, state.ScanShape{}, false},
		{"history-bounded", env, state.ScanShape{AllVersions: true}, false},
		{"history-tx-before-anything", env, state.ScanShape{HasTxAt: true, TxAt: 5, AllVersions: true}, true},
	}
	for _, c := range cases {
		if got := scanPrune(c.env, c.shape); got != c.prune {
			t.Errorf("%s: scanPrune = %v, want %v", c.name, got, c.prune)
		}
	}
}
