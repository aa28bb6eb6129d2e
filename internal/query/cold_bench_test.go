package query

import (
	"fmt"
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
// envelope unread.
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

// coldStore preloads and reopens the workload's directory. The
// preload's merges are off, so all coldSegments flushed segments
// survive into the reopen.
func coldStore(tb testing.TB) *segment.Store {
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
				batch = append(batch, state.BatchPut{Entity: names[s], Attr: coldAttr,
					Value: element.Float((float64(s) + float64(v)/coldVersions) * 100 / coldSensors),
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
	if d, err = segment.Open(dir, segment.WithResidencyBudget(budget)); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	if info := d.Info(); info.Segments < coldSegments || info.EvictedLineages*2 < coldSensors {
		tb.Fatalf("reopened store is not mostly cold: %d segments, %d of %d lineages evicted",
			info.Segments, info.EvictedLineages, coldSensors)
	}
	return d
}

// coldNow is past every preloaded reading.
const coldNow = temporal.Instant((coldVersions*coldSensors + 1) * coldStep)

// BenchmarkPreparedExecCold times prepared scan-shaped queries on a
// fresh snapshot of the budgeted store: the selective select, the same
// select at a past valid and transaction time, and the full scan, which
// reads every cold frame.
//
//	go test -run '^$' -bench PreparedExecCold ./internal/query
func BenchmarkPreparedExecCold(b *testing.B) {
	d := coldStore(b)
	for _, c := range []struct{ name, src string }{
		{"select", coldSelect},
		{"asof", coldAsof},
		{"scan", coldScan},
	} {
		p, err := Prepare(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(ExecEnv{Store: d.Mem().Snapshot(), Now: coldNow}); err != nil {
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
	d := coldStore(t)
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
