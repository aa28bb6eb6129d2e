package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// The resident store of the ingest-mem benchmark workload: uniform
// readings over 10,000 sensors in 512-element micro-batches, about 13
// versions per sensor, plus a few retroactive corrections above every
// reading. A select for value > 99.9 keeps about 0.1% of the lineages.
const (
	residentSensors   = 10_000
	residentReadings  = 131_072
	residentBatch     = 512
	residentStep      = 1000 // application-time gap between readings
	residentAttr      = "temperature"
	residentSelect    = "SELECT entity, value FROM temperature WHERE value > 99.9"
	residentScan      = "SELECT entity, value FROM temperature"
	residentMidpoint  = residentReadings / 2 * residentStep
	residentCorrected = 200.0
)

var residentAsof = fmt.Sprintf(
	"SELECT entity, value FROM temperature ASOF %d SYSTEM TIME ASOF %d WHERE value > 99.9",
	residentMidpoint, residentMidpoint)

// residentStore builds the workload's store, seeded so every run reads
// the same lineages.
func residentStore(tb testing.TB) *state.Store {
	tb.Helper()
	st := state.NewStore()
	rng := rand.New(rand.NewSource(1))
	names := make([]string, residentSensors)
	for i := range names {
		names[i] = fmt.Sprintf("sensor-%05d", i)
	}
	last := make([]temporal.Instant, residentSensors)
	batch := make([]state.BatchPut, 0, residentBatch)
	for i := 0; i < residentReadings; i++ {
		s := rng.Intn(residentSensors)
		at := temporal.Instant((i + 1) * residentStep)
		last[s] = at
		batch = append(batch, state.BatchPut{Entity: names[s], Attr: residentAttr,
			Value: element.Float(rng.Float64() * 100), At: at})
		if len(batch) == residentBatch {
			if err := st.PutBatch(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for k := 0; k < 8; k++ {
		s := rng.Intn(residentSensors)
		from := last[s] + residentStep/10
		last[s] = from + residentStep/10
		if err := st.Put(names[s], residentAttr, element.Float(residentCorrected+float64(k)),
			state.WithValidTime(from), state.WithEndValidTime(last[s])); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// BenchmarkPreparedExecResident times prepared scan-shaped queries on a
// fresh snapshot of the resident store: the selective select, the same
// select at a past valid and transaction time, the full scan, and the
// select after a new lineage, which changes a shard's directory before
// every call so no candidate order is ever reused.
//
//	go test -run '^$' -bench PreparedExecResident ./internal/query
func BenchmarkPreparedExecResident(b *testing.B) {
	st := residentStore(b)
	now := temporal.Instant(residentReadings * residentStep)
	for _, c := range []struct {
		name, src string
		newKey    bool
	}{
		{"select", residentSelect, false},
		{"asof", residentAsof, false},
		{"scan", residentScan, false},
		{"select-new-key", residentSelect, true},
	} {
		p, err := Prepare(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.newKey {
					now++
					if err := st.Replace(fmt.Sprintf("new-%s-%d", c.name, i), residentAttr, element.Float(0), now); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := p.Exec(ExecEnv{Store: st.Snapshot(), Now: now}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPreparedExecSelectiveBytes pins what a selective select costs once
// its candidate order is warm: the scan allocates for the rows it keeps,
// not for the 10,000 lineages it passes over. The bound catches a
// per-query sort of the directory, which allocates about 500 KB.
func TestPreparedExecSelectiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates heap allocation")
	}
	st := residentStore(t)
	p, err := Prepare(residentSelect)
	if err != nil {
		t.Fatal(err)
	}
	env := ExecEnv{Store: st.Snapshot(), Now: residentReadings * residentStep}
	res, err := p.Exec(env) // warms the order
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Rows); n == 0 || n*100 >= residentSensors {
		t.Fatalf("select keeps %d of %d lineages, want under 1%%", n, residentSensors)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Exec(env); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 64 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Errorf("selective Exec allocates %d B/op, budget %d", per, budget)
	}
}
