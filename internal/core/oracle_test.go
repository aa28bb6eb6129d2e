package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// oracleRules mixes every rule class: REPLACE and EMIT rules, a RETRACT
// rule, and a correlated CEP pattern rule.
const oracleRules = `
RULE track ON Reading AS r
THEN REPLACE temp(r.sensor) = r.celsius

RULE hot ON Reading AS r WHERE r.celsius > 80
THEN EMIT Hot(sensor = r.sensor, celsius = r.celsius)

RULE clear ON Reset AS x
THEN RETRACT temp(x.sensor)

RULE swing ON SEQ(Up AS a, Down AS b) WITHIN 40ns WHERE a.k = b.k
THEN EMIT Swing(k = a.k)
`

// oracleMessages builds a deterministic mixed workload: strictly
// increasing timestamps, entity-keyed first fields, and a watermark
// every 50 elements.
func oracleMessages(n int) []stream.Message {
	readingSchema := element.NewSchema(
		element.Field{Name: "sensor", Kind: element.KindString},
		element.Field{Name: "celsius", Kind: element.KindFloat},
	)
	resetSchema := element.NewSchema(element.Field{Name: "sensor", Kind: element.KindString})
	upSchema := element.NewSchema(element.Field{Name: "k", Kind: element.KindString})

	rng := rand.New(rand.NewSource(7))
	els := make([]*element.Element, 0, n)
	for i := 0; i < n; i++ {
		ts := temporal.Instant(i + 1)
		var el *element.Element
		switch rng.Intn(10) {
		case 0:
			el = element.New("Reset", ts, element.NewTuple(resetSchema,
				element.String(fmt.Sprintf("s%02d", rng.Intn(16)))))
		case 1:
			el = element.New("Up", ts, element.NewTuple(upSchema,
				element.String(fmt.Sprintf("k%d", rng.Intn(4)))))
		case 2:
			el = element.New("Down", ts, element.NewTuple(upSchema,
				element.String(fmt.Sprintf("k%d", rng.Intn(4)))))
		default:
			el = element.New("Reading", ts, element.NewTuple(readingSchema,
				element.String(fmt.Sprintf("s%02d", rng.Intn(16))),
				element.Float(float64(rng.Intn(100)))))
		}
		el.Seq = uint64(i)
		els = append(els, el)
	}
	return stream.WithPeriodicWatermarks(els, 50)
}

// oracleEngine builds one engine over the oracle workload's rules and
// processors (a state gate plus enrichment).
func oracleEngine(t *testing.T, policy Policy) *Engine {
	t.Helper()
	e := New(WithPolicy(policy))
	if err := e.DeployRules(oracleRules); err != nil {
		t.Fatal(err)
	}
	gate := mustExpr(t, "EXISTS temp(e.sensor) AND e.celsius > 20")
	if err := e.DeployProcessor(&Processor{
		Name:   "warm",
		Source: "Reading",
		Gate:   gate,
		Enrich: []EnrichSpec{{Attr: "temp", EntityField: "sensor", As: "known"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.DeployProcessor(&Processor{Name: "alerts", Source: "Hot"}); err != nil {
		t.Fatal(err)
	}
	return e
}

func factSig(f *element.Fact) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%v|%s",
		f.Entity, f.Attribute, f.Value, f.Validity,
		f.RecordedAt, f.SupersededAt, f.Derived, f.Source)
}

// compareStores requires got to hold want's facts, every version and
// both time axes, and the same content statistics.
func compareStores(t *testing.T, want, got *state.Store) {
	t.Helper()
	fw, fg := want.List(state.AllVersions()), got.List(state.AllVersions())
	if len(fw) != len(fg) {
		t.Fatalf("want %d facts, got %d", len(fw), len(fg))
	}
	for i := range fw {
		if factSig(fw[i]) != factSig(fg[i]) {
			t.Fatalf("fact[%d]: want %s, got %s", i, factSig(fw[i]), factSig(fg[i]))
		}
	}
	sw, sg := want.Stats(), got.Stats()
	sw.Shards, sg.Shards = 0, 0 // layout may differ; contents must not
	sw.TxHigh, sg.TxHigh = 0, 0 // clock high-water mark is not state
	if sw != sg {
		t.Fatalf("stats: want %+v, got %+v", sw, sg)
	}
}

// TestWALReplayRebuildsState drives the oracle workload under every
// interaction policy with a WAL attached and requires that replaying the
// log into a fresh store rebuilds the run's state exactly: REPLACE
// writes arrive as per-micro-batch group-commit frames, RETRACTs as
// bitemporal deletes, interleaved in commit order.
func TestWALReplayRebuildsState(t *testing.T) {
	for _, policy := range []Policy{StateFirst, StreamFirst, Snapshot} {
		t.Run(policy.String(), func(t *testing.T) {
			e := oracleEngine(t, policy)
			wal, dir := attachWAL(t, e.Store())
			if err := e.Run(oracleMessages(2_000)); err != nil {
				t.Fatal(err)
			}
			compareStores(t, e.Store(), replayWAL(t, wal, dir))
		})
	}
}

// TestEmittedRetention: the Emitted buffer is bounded by the retention
// option — at least the most recent n are kept, growth stops at 2n — and
// the retained suffix is the true tail of the emission sequence.
func TestEmittedRetention(t *testing.T) {
	schema := element.NewSchema(element.Field{Name: "sensor", Kind: element.KindString},
		element.Field{Name: "celsius", Kind: element.KindFloat})
	els := make([]*element.Element, 500)
	for i := range els {
		els[i] = element.New("Reading", temporal.Instant(i+1),
			element.NewTuple(schema, element.String("s"), element.Float(90))) // always hot
		els[i].Seq = uint64(i)
	}
	e := New(WithEmittedRetention(10))
	if err := e.DeployRules(oracleRules); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	got := e.Emitted()
	if len(got) < 10 || len(got) > 20 {
		t.Fatalf("retention window: %d elements retained, want within [10, 20]", len(got))
	}
	// The retained elements are the most recent emissions, in order.
	last := got[len(got)-1]
	if last.Seq != 499 {
		t.Fatalf("last retained seq: %d, want 499", last.Seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("retained suffix not contiguous at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
}

// TestConcurrentQueriesDuringIngest races on-demand reads against
// ingestion: Query, List, and Watermark are documented safe to call
// concurrently with Run. Run under -race in CI.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	msgs := oracleMessages(4_000)
	e := oracleEngine(t, Snapshot)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := e.Query("SELECT entity, value FROM temp"); err != nil {
					t.Error(err)
					return
				}
				e.Store().List(state.WithAttribute("temp"))
				_ = e.Watermark()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	err := e.Run(msgs)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if e.ElementsIn() != 4_000 {
		t.Fatalf("elements in: %d", e.ElementsIn())
	}
}
