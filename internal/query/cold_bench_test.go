package query

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/temporal"
)

// The budgeted directory of the serve-cold benchmark workload: every
// sensor written coldVersions times with values rising by sensor index,
// the last version flushed as coldSegments segments of contiguous sensor
// ranges, reopened under a residency budget of 1/8 of the preload's
// resident bytes. Most lineages stay on disk, so a scan resolves
// thousands of cold keys; a select for value > 99.9 keeps the top 0.1%
// of the sensors, and every other cold frame is pruned by its value
// envelope unread. The churned variant's first version of every sensor
// reads above 99.9, so no lineage's whole-history envelope excludes the
// select: only the open values prune it.
const (
	coldSensors  = 6_000
	coldVersions = 10
	coldSegments = 64
	coldStep     = 1000 // application-time gap between a sensor's versions
	coldAttr     = "temperature"
	coldSelect   = "SELECT entity, value FROM temperature WHERE value > 99.9"
	coldScan     = "SELECT entity, value FROM temperature"
	coldMidpoint = coldVersions / 2 * coldSensors * coldStep
)

var coldAsof = fmt.Sprintf(
	"SELECT entity, value FROM temperature ASOF %d SYSTEM TIME ASOF %d WHERE value > 99.9",
	coldMidpoint, coldMidpoint)

// coldStore preloads and reopens the workload's directory, churned or
// not, under its residency budget.
func coldStore(tb testing.TB, churned bool) *segment.Store {
	tb.Helper()
	dir, budget := coldDir(tb, churned)
	d, err := segment.Open(dir, segment.WithResidencyBudget(budget))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	if info := d.Info(); info.Segments < coldSegments || info.EvictedLineages*2 < coldSensors {
		tb.Fatalf("reopened store is not mostly cold: %d segments, %d of %d lineages evicted",
			info.Segments, info.EvictedLineages, coldSensors)
	}
	return d
}

// coldDir preloads the workload's directory and returns it closed, with
// the residency budget of its reopen. The preload's merges are off, so
// all coldSegments flushed segments survive into the reopen.
func coldDir(tb testing.TB, churned bool) (string, int64) {
	tb.Helper()
	dir := tb.TempDir()
	d, err := segment.Open(dir, segment.WithCompactionFanout(1<<20),
		segment.WithCompactionLevelBytes(0), segment.WithFlushEvery(1<<30))
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, coldSensors)
	for s := range names {
		names[s] = fmt.Sprintf("sensor-%05d", s)
	}
	for v := 0; v < coldVersions; v++ {
		pieces := 1
		if v == coldVersions-1 {
			pieces = coldSegments
		}
		for p := 0; p < pieces; p++ {
			from, to := p*coldSensors/pieces, (p+1)*coldSensors/pieces
			batch := make([]state.BatchPut, 0, to-from)
			for s := from; s < to; s++ {
				val := (float64(s) + float64(v)/coldVersions) * 100 / coldSensors
				if churned && v == 0 {
					val += 100
				}
				batch = append(batch, state.BatchPut{Entity: names[s], Attr: coldAttr,
					Value: element.Float(val),
					At:    temporal.Instant((v*coldSensors + s + 1) * coldStep)})
			}
			if err := d.Mem().PutBatch(batch); err != nil {
				tb.Fatal(err)
			}
			if pieces > 1 {
				if err := d.Flush(); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	budget := d.Info().ResidentBytes / 8
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, budget
}

// coldNow is past every preloaded reading.
const coldNow = temporal.Instant((coldVersions*coldSensors + 1) * coldStep)

// BenchmarkPreparedExecCold times prepared scan-shaped queries on a
// fresh snapshot of the budgeted store: the selective select, the same
// select at a past valid and transaction time, the full scan, which
// reads every cold frame, and the selective select on the churned
// store, which only open values prune.
//
//	go test -run '^$' -bench PreparedExecCold ./internal/query
func BenchmarkPreparedExecCold(b *testing.B) {
	d := coldStore(b, false)
	var churned *segment.Store // built when its case runs
	for _, c := range []struct {
		name, src string
		churned   bool
	}{
		{"select", coldSelect, false},
		{"asof", coldAsof, false},
		{"scan", coldScan, false},
		{"select-churned", coldSelect, true},
	} {
		p, err := Prepare(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			st := d
			if c.churned {
				if churned == nil {
					churned = coldStore(b, true)
				}
				st = churned
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(ExecEnv{Store: st.Mem().Snapshot(), Now: coldNow}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPreparedExecColdSelectiveBytes pins what a selective select costs
// on the budgeted store once its candidate order and the resolution of
// its cold keys are warm: the scan allocates for the rows it keeps, not
// for the thousands of cold keys it filters. The bound catches a
// per-query resolve of the cold keys against the segment catalog, which
// allocates about 570 KB.
func TestPreparedExecColdSelectiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates heap allocation")
	}
	d := coldStore(t, false)
	p, err := Prepare(coldSelect)
	if err != nil {
		t.Fatal(err)
	}
	env := ExecEnv{Store: d.Mem().Snapshot(), Now: coldNow}
	res, err := p.Exec(env) // warms the order and its resolution
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Rows); n == 0 || n*100 >= coldSensors {
		t.Fatalf("select keeps %d of %d lineages, want under 1%%", n, coldSensors)
	}
	pruned := d.Info().ScanFramesPruned
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Exec(env); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := d.Info().ScanFramesPruned - pruned; got < runs*coldSensors/2 {
		t.Fatalf("%d Execs pruned %d cold frames, want most of the %d lineages each", runs, got, coldSensors)
	}
	const budget = 32 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Errorf("selective Exec allocates %d B/op, budget %d", per, budget)
	}
}

// TestPreparedExecColdChurnedSelect pins what open-value pruning buys on
// the churned store, where every lineage's history holds a value above
// the select's bound: once warm, the current select reads at most one
// cold frame per sensor it returns, while the same select at a past
// valid and transaction time, which may select a superseded version,
// still reads its frames. Both return exactly what the all-resident
// store returns.
func TestPreparedExecColdChurnedSelect(t *testing.T) {
	d := coldStore(t, true)
	dir, _ := coldDir(t, true)
	resident, err := segment.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resident.Close()
	exec := func(st *segment.Store, src string) (*Result, int64) {
		t.Helper()
		p, err := Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		frames := st.Info().ScanFrames
		res, err := p.Exec(ExecEnv{Store: st.Mem().Snapshot(), Now: coldNow})
		if err != nil {
			t.Fatal(err)
		}
		return res, st.Info().ScanFrames - frames
	}
	exec(d, coldSelect) // warms the order and its resolution
	res, frames := exec(d, coldSelect)
	want, _ := exec(resident, coldSelect)
	if n := len(res.Rows); n == 0 || n*100 >= coldSensors {
		t.Fatalf("churned select keeps %d of %d sensors, want under 1%%", n, coldSensors)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("churned select diverged from the resident store:\n got %v\nwant %v", res.Rows, want.Rows)
	}
	if frames > int64(len(res.Rows)) {
		t.Fatalf("warm churned select read %d cold frames for %d matching sensors", frames, len(res.Rows))
	}
	res, frames = exec(d, coldAsof)
	want, _ = exec(resident, coldAsof)
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("churned ASOF select diverged from the resident store:\n got %v\nwant %v", res.Rows, want.Rows)
	}
	if evicted := int64(d.Info().EvictedLineages); frames*2 < evicted {
		t.Fatalf("churned ASOF select read %d cold frames of %d evicted lineages: its frames were pruned", frames, evicted)
	}
}
