package statestream_test

// Benchmark harness: one testing.B benchmark per experiment E1-E10 (see
// bench.All), each delegating to the same internal/bench function whose
// table cmd/benchrunner prints, plus
// micro-benchmarks for the load-bearing substrates (state store, rule
// firing, window evaluation, query language, reasoner).
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	statestream "repro"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// benchScale keeps the experiment benchmarks fast enough to iterate;
// cmd/benchrunner runs the full-size tables at scale 1.
const benchScale = 0.25

func runExperiment(b *testing.B, run func(float64) *metrics.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab := run(benchScale)
		if len(tab.Rows()) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1SessionScoping(b *testing.B)   { runExperiment(b, bench.E1SessionScoping) }
func BenchmarkE2Contradictions(b *testing.B)   { runExperiment(b, bench.E2Contradictions) }
func BenchmarkE3Reclassification(b *testing.B) { runExperiment(b, bench.E3Reclassification) }
func BenchmarkE4StateQuery(b *testing.B)       { runExperiment(b, bench.E4StateQuery) }
func BenchmarkE5StateGating(b *testing.B)      { runExperiment(b, bench.E5StateGating) }
func BenchmarkE6Reasoning(b *testing.B)        { runExperiment(b, bench.E6Reasoning) }
func BenchmarkE7StateStore(b *testing.B)       { runExperiment(b, bench.E7StateStore) }
func BenchmarkE8Semantics(b *testing.B)        { runExperiment(b, bench.E8Semantics) }
func BenchmarkE9WindowBaselines(b *testing.B)  { runExperiment(b, bench.E9WindowBaselines) }
func BenchmarkE10RuleOverhead(b *testing.B)    { runExperiment(b, bench.E10RuleOverhead) }

// --- Substrate micro-benchmarks ---------------------------------------

func BenchmarkStorePut(b *testing.B) {
	st := statestream.NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%04d", i%1000)
		if err := st.Replace(key, "v", statestream.Int(int64(i)), statestream.Instant(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreCurrentLookup(b *testing.B) {
	st := statestream.NewStore()
	for i := 0; i < 100_000; i++ {
		st.Replace(fmt.Sprintf("k%04d", i%1000), "v", statestream.Int(int64(i)), statestream.Instant(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Find(fmt.Sprintf("k%04d", i%1000), "v")
	}
}

func BenchmarkStoreAsOfLookup(b *testing.B) {
	st := statestream.NewStore()
	for i := 0; i < 100_000; i++ {
		st.Replace(fmt.Sprintf("k%04d", i%1000), "v", statestream.Int(int64(i)), statestream.Instant(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Find(fmt.Sprintf("k%04d", i%1000), "v", statestream.AsOfValidTime(statestream.Instant(i%100_000)))
	}
}

func BenchmarkRuleFiring(b *testing.B) {
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`); err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultBuilding()
	els, _ := workload.Building(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el := els[i%len(els)]
		// Keep timestamps monotonic across laps by shifting each lap.
		shifted := *el
		shifted.Timestamp += statestream.Instant(i/len(els)) * (els[len(els)-1].Timestamp + 1)
		if err := engine.Process(statestream.ElementMsg(&shifted)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowSession(b *testing.B) {
	cfg := workload.DefaultClickstream()
	els, _ := workload.Clickstream(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := statestream.NewSessionWindow(statestream.Instant(30*time.Minute),
			func(e *statestream.Element) string { return e.MustGet("visitor").MustString() })
		b.StartTimer()
		for _, el := range els {
			w.Observe(el)
			w.AdvanceTo(el.Timestamp)
		}
	}
}

func BenchmarkQueryLanguage(b *testing.B) {
	engine := statestream.New(statestream.StateFirst)
	for i := 0; i < 10_000; i++ {
		engine.Store().Replace(fmt.Sprintf("e%04d", i%500), "position",
			statestream.String(fmt.Sprintf("room%d", i%10)), statestream.Instant(i))
	}
	engine.Process(statestream.WatermarkMsg(10_001))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Query("SELECT value, count(*) FROM position GROUP BY value"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReasonerMaterialize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := statestream.NewStore()
		ont := statestream.NewOntology()
		for d := 0; d < 6; d++ {
			for f := 0; f < 2; f++ {
				if err := ont.SubClassOf(fmt.Sprintf("c%d_%d", d+1, f), fmt.Sprintf("c%d_0", d)); err != nil {
					b.Fatal(err)
				}
			}
		}
		reasoner := statestream.NewReasoner(st, ont)
		for p := 0; p < 200; p++ {
			st.Replace(fmt.Sprintf("p%03d", p), "type",
				statestream.String(fmt.Sprintf("c6_%d", p%2)), statestream.Instant(p))
		}
		b.StartTimer()
		reasoner.Materialize()
	}
}
