package segment

// The kept cold resolution is unobservable: every scan and prepared
// query read through the RAM store's cached candidate orders and the
// resolutions of their cold keys equals the same read taken right after
// all of them are dropped — rows, scan stats, and the frames read and
// pruned — across writes, corrections, deletes, flushes, merges,
// evictions, fault-ins and scans that race a publish. No kept resolution
// ever holds a segment the catalog has retired.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
)

// resolutionBounds are the value bounds of the differential's scans:
// none, value > 120, and value < 60.
var resolutionBounds = []state.ValueBounds{
	{},
	{Min: 120, HasMin: true, MinExcl: true},
	{Max: 60, HasMax: true, MaxExcl: true},
}

// resolutionQueries are the prepared queries of the differential: the
// temporal shapes unbounded and bounded both ways, a history, the
// all-attributes scope, and a residual that point-reads mid-scan.
var resolutionQueries = []string{
	"SELECT entity, value FROM value",
	"SELECT entity, value FROM value WHERE value > 120",
	"SELECT entity, value FROM value WHERE value < 60",
	"SELECT entity, value FROM batch ASOF 1500 WHERE value > 120",
	"SELECT entity, value FROM value ASOF 1500 SYSTEM TIME ASOF 1500 WHERE value < 60",
	"SELECT entity, start, end, recorded, superseded FROM value HISTORY SYSTEM TIME ASOF 1500",
	"SELECT entity, attribute, value FROM * ASOF 1500",
	"SELECT entity, value FROM value WHERE EXISTS audit(entity)",
}

// coldReads is one pass of the differential's reads; Frames and Pruned
// hold each read's count of cold frames read and pruned unread.
type coldReads struct {
	Scans  [][]*element.Fact
	Stats  []state.ScanStats
	Execs  []*query.Result
	Frames []int64
	Pruned []int64
}

// readCold runs every read shape of the differential on a fresh
// snapshot at parallelism par: ScanPartitioned for each shape and
// bound, and each prepared query.
func readCold(t *testing.T, d *Store, preps []*query.Prepared, par int) coldReads {
	t.Helper()
	var r coldReads
	sn := d.mem.Snapshot()
	count := func(read func()) {
		frames, pruned := d.scanFrames.Load(), d.scanPruned.Load()
		read()
		r.Frames = append(r.Frames, d.scanFrames.Load()-frames)
		r.Pruned = append(r.Pruned, d.scanPruned.Load()-pruned)
	}
	for _, sh := range outOfCoreShapes {
		for _, b := range resolutionBounds {
			count(func() {
				rows, st := sn.ScanPartitioned(state.ScanSpec{Opts: sh.opts, Bounds: b, Parallelism: par})
				if st.Err != nil {
					t.Fatalf("ScanPartitioned(%s): %v", sh.name, st.Err)
				}
				r.Scans = append(r.Scans, rows)
				r.Stats = append(r.Stats, st)
			})
		}
	}
	for i, p := range preps {
		count(func() {
			res, err := p.Exec(query.ExecEnv{Store: sn, Parallelism: par})
			if err != nil {
				t.Fatalf("Exec(%q): %v", resolutionQueries[i], err)
			}
			r.Execs = append(r.Execs, res)
		})
	}
	return r
}

// diffCold names the first read on which two passes differ.
func diffCold(got, want coldReads) string {
	for i := range want.Scans {
		if !reflect.DeepEqual(got.Scans[i], want.Scans[i]) || !reflect.DeepEqual(got.Stats[i], want.Stats[i]) {
			return fmt.Sprintf("scan %d: %d rows %+v, want %d rows %+v", i, len(got.Scans[i]), got.Stats[i], len(want.Scans[i]), want.Stats[i])
		}
	}
	for i := range want.Execs {
		if !reflect.DeepEqual(got.Execs[i], want.Execs[i]) {
			return fmt.Sprintf("Exec(%q) diverged", resolutionQueries[i])
		}
	}
	for i := range want.Frames {
		if got.Frames[i] != want.Frames[i] || got.Pruned[i] != want.Pruned[i] {
			return fmt.Sprintf("read %d: %d frames read, %d pruned; want %d, %d", i, got.Frames[i], got.Pruned[i], want.Frames[i], want.Pruned[i])
		}
	}
	return ""
}

// assertNoRetiredKept fails when a kept resolution references a segment
// outside the current catalog: it would keep a retired segment's reader
// and footer index reachable.
func assertNoRetiredKept(t *testing.T, d *Store, step string) {
	t.Helper()
	live := d.cat.Load().segments
	for _, r := range d.keptReaders() {
		if !slices.Contains(live, r) {
			t.Fatalf("%s: a kept resolution holds retired segment %s", step, r.path)
		}
	}
}

// TestColdResolutionUnobservable runs random steps on a real segment
// store; after each, every read through the kept orders and resolutions
// — at parallelism 1 or 4, alternating — must equal the read right after
// dropping them, and no kept resolution may hold a retired segment.
func TestColdResolutionUnobservable(t *testing.T) {
	preps := make([]*query.Prepared, len(resolutionQueries))
	for i, src := range resolutionQueries {
		p, err := query.Prepare(src)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		preps[i] = p
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			testColdResolution(t, seed, preps)
		})
	}
}

func testColdResolution(t *testing.T, seed int64, preps []*query.Prepared) {
	const (
		entities = 120
		steps    = 120
	)
	d, err := Open(t.TempDir(), WithFlushEvery(0), WithCompactionFanout(2), WithCompactionLevelBytes(0))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	src := &racingSource{Store: d}
	d.mem.SetColdSource(src)
	d.mem.SetAccessTracking(true)

	rng := rand.New(rand.NewSource(seed))
	vt := temporal.Instant(0)
	put := func(entity, attr string) {
		vt += 3
		v := element.Float(float64(rng.Intn(240)))
		if attr == "audit" {
			v = element.String(fmt.Sprint("note-", rng.Intn(50)))
		}
		if err := d.Put(entity, attr, v, state.WithValidTime(vt)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	attrs := []string{"value", "value", "batch", "audit"}
	write := func(n int) {
		for i := 0; i < n; i++ {
			put(fmt.Sprintf("e%03d", rng.Intn(entities)), attrs[rng.Intn(len(attrs))])
		}
	}
	flush := func() {
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}

	warm, cold, raced := 0, 0, 0
	for step := 0; step < steps; step++ {
		var name string
		switch k := rng.Intn(11); {
		case k < 3:
			name = "write"
			write(12)
		case k == 3:
			name = "correction"
			for i := 0; i < 3; i++ {
				from := temporal.Instant(rng.Int63n(int64(vt) + 1))
				if err := d.Put(fmt.Sprintf("e%03d", rng.Intn(entities)), "value", element.Float(float64(500+rng.Intn(100))),
					state.WithValidTime(from), state.WithEndValidTime(from+5)); err != nil {
					t.Fatalf("correction: %v", err)
				}
			}
		case k == 4:
			name = "delete"
			if err := d.Delete(fmt.Sprintf("e%03d", rng.Intn(entities)), attrs[rng.Intn(len(attrs))]); err != nil {
				t.Fatalf("delete: %v", err)
			}
		case k == 5:
			name = "pulse"
			d.Pulse(d.mem.Snapshot().At())
			d.Idle()
		case k == 6:
			name = "flush"
			flush()
		case k == 7:
			name = "step:" + d.Step()
		case k == 8:
			name = "evict"
			budget := int64(0)
			if rng.Intn(2) == 0 {
				budget = d.mem.ResidentBytes() / 8
			}
			d.EvictToBudget(budget)
		case k == 9:
			name = "fault-in"
			if ev := d.mem.EvictedKeys(); len(ev) > 0 {
				for i := 0; i < 4; i++ {
					key := ev[rng.Intn(len(ev))]
					put(key.Entity, key.Attribute)
				}
			}
		default:
			// A scan whose resolve races a publish: it may filter the
			// old catalog's resolution, but must not keep it.
			name = "race"
			write(6)
			d.mem.DropColdResolutions()
			src.during = func() {
				if rng.Intn(2) == 0 {
					flush()
				} else {
					d.Step()
				}
			}
			sn := d.mem.Snapshot()
			spec := state.ScanSpec{Parallelism: 1 + rng.Intn(4)}
			rows, st := sn.ScanPartitioned(spec)
			if src.during == nil {
				raced++
			}
			src.during = nil
			if st.Err != nil {
				t.Fatalf("step %d: racing scan: %v", step, st.Err)
			}
			if again, _ := sn.ScanPartitioned(spec); !reflect.DeepEqual(rows, again) {
				t.Fatalf("step %d: a scan racing a publish returned %d rows, the scan after it %d", step, len(rows), len(again))
			}
		}
		leg := fmt.Sprintf("step %d (%s)", step, name)
		assertNoRetiredKept(t, d, leg)
		if len(d.mem.ColdKeys()) > 0 {
			cold++
		}
		if res := d.mem.ColdResolutions(); len(res) > 0 && res[0].Current() {
			warm++
		}
		par := 1 + 3*(step%2)
		got := readCold(t, d, preps, par)
		d.mem.SetColdSource(src) // drops every cached order and resolution
		if diff := diffCold(got, readCold(t, d, preps, par)); diff != "" {
			t.Fatalf("%s: read through kept resolutions diverged from a fresh resolve: %s", leg, diff)
		}
		assertNoRetiredKept(t, d, leg)
	}
	t.Logf("%d of %d steps read warm resolutions, %d had cold keys, %d scans raced a publish", warm, steps, cold, raced)
	if warm < steps/4 || cold < steps/2 || raced < steps/30 {
		t.Fatalf("weak run: %d of %d steps read warm resolutions, %d had cold keys, %d scans raced a publish", warm, steps, cold, raced)
	}
	if info := d.Info(); info.Merges == 0 {
		t.Fatalf("no merge ran: %+v", info)
	}
}

// TestResolveColdMissAllocatesNothing: a key with no frame in the
// catalog — a point read of a sensor never flushed — resolves to the
// catalog's shared empty resolution without allocating, and that
// resolution stops being Current when a flush publishes a new catalog.
// A key with a frame still resolves to its own.
func TestResolveColdMissAllocatesNothing(t *testing.T) {
	d, err := Open(t.TempDir(), WithFlushEvery(0))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	put := func(entity string) {
		t.Helper()
		if err := d.Put(entity, "value", element.Float(1)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	put("a")
	put("b")
	absent := []element.FactKey{{Entity: "never", Attribute: "value"}}
	miss := d.ResolveCold(absent)
	if again := d.ResolveCold(absent); again != miss || !miss.Current() {
		t.Fatalf("a miss did not resolve to the catalog's current empty resolution")
	}
	if got := d.ColdFrames(nil, miss, state.ScanShape{}, state.ValueBounds{}); len(got) != 0 {
		t.Fatalf("a miss returned %d frames", len(got))
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { d.ResolveCold(absent) }); allocs != 0 {
			t.Fatalf("a miss allocates %.0f/op, want 0", allocs)
		}
	}
	present := []element.FactKey{{Entity: "a", Attribute: "value"}}
	if got := d.ColdFrames(nil, d.ResolveCold(present), state.ScanShape{}, state.ValueBounds{}); len(got) != 1 || got[0].Key != present[0] {
		t.Fatalf("a key with a frame resolved to %v", got)
	}
	put("c")
	if miss.Current() {
		t.Fatalf("the empty resolution stayed current across a flush")
	}
	if next := d.ResolveCold(absent); next == miss || !next.Current() {
		t.Fatalf("a miss after a flush did not resolve against the new catalog")
	}
}
