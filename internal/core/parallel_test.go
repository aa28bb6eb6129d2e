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

// oracleRules mixes every parallel-relevant rule class: pure REPLACE and
// EMIT rules (deferred group-commit path), an impure RETRACT rule (write-
// through path with batch flushes), and a correlated CEP pattern rule
// (serial pattern phase).
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
// increasing timestamps (the documented determinism condition), entity-
// keyed first fields, and a watermark every 50 elements.
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

// oracleEngine builds one engine over the oracle workload's rules,
// processors (a state gate plus enrichment).
func oracleEngine(t *testing.T, policy Policy, workers int) *Engine {
	t.Helper()
	e := New(WithPolicy(policy), WithParallelism(workers))
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

func elementSig(el *element.Element) string {
	return fmt.Sprintf("%d|%s", el.Seq, el.String())
}

func factSig(f *element.Fact) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%v|%s",
		f.Entity, f.Attribute, f.Value, f.Validity,
		f.RecordedAt, f.SupersededAt, f.Derived, f.Source)
}

func compareElements(t *testing.T, what string, a, b []*element.Element) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: serial %d elements, parallel %d", what, len(a), len(b))
	}
	for i := range a {
		if elementSig(a[i]) != elementSig(b[i]) {
			t.Fatalf("%s[%d]: serial %s != parallel %s", what, i, elementSig(a[i]), elementSig(b[i]))
		}
	}
}

func compareStores(t *testing.T, what string, a, b *state.Store) {
	t.Helper()
	fa, fb := a.List(state.AllVersions()), b.List(state.AllVersions())
	if len(fa) != len(fb) {
		t.Fatalf("%s: serial %d facts, parallel %d", what, len(fa), len(fb))
	}
	for i := range fa {
		if factSig(fa[i]) != factSig(fb[i]) {
			t.Fatalf("%s fact[%d]: serial %s != parallel %s", what, i, factSig(fa[i]), factSig(fb[i]))
		}
	}
	sa, sb := a.Stats(), b.Stats()
	sa.Shards, sb.Shards = 0, 0 // layout may differ; contents must not
	sa.TxHigh, sb.TxHigh = 0, 0 // clock high-water mark is not state
	if sa != sb {
		t.Fatalf("%s stats: serial %+v, parallel %+v", what, sa, sb)
	}
}

// TestParallelOracle drives identical workloads through the serial engine
// (the semantic oracle) and the 8-worker micro-batch pipeline under every
// interaction policy, requiring byte-identical processor outputs, derived
// elements, state — and that WAL replay of the parallel run reproduces
// the serial run's state.
func TestParallelOracle(t *testing.T) {
	for _, policy := range []Policy{StateFirst, StreamFirst, Snapshot} {
		t.Run(policy.String(), func(t *testing.T) {
			msgs := oracleMessages(2_000)
			serial := oracleEngine(t, policy, 1)
			parallel := oracleEngine(t, policy, 8)
			walSerial, dirSerial := attachWAL(t, serial.Store())
			walParallel, dirParallel := attachWAL(t, parallel.Store())
			if err := serial.Run(msgs); err != nil {
				t.Fatal(err)
			}
			if err := parallel.Run(msgs); err != nil {
				t.Fatal(err)
			}

			for _, proc := range []string{"warm", "alerts"} {
				compareElements(t, "output "+proc, serial.Output(proc), parallel.Output(proc))
			}
			compareElements(t, "emitted", serial.Emitted(), parallel.Emitted())
			if serial.ElementsIn() != parallel.ElementsIn() {
				t.Fatalf("elements in: %d vs %d", serial.ElementsIn(), parallel.ElementsIn())
			}
			for i, st := range serial.Stats() {
				if pt := parallel.Stats()[i]; st != pt {
					t.Fatalf("processor stats: %+v vs %+v", st, pt)
				}
			}
			compareStores(t, "store", serial.Store(), parallel.Store())

			// WAL replay: the parallel log's record order may differ
			// (workers interleave, batches are framed), but replay must
			// rebuild the same state the serial run left behind.
			fromSerial := replayWAL(t, walSerial, dirSerial)
			fromParallel := replayWAL(t, walParallel, dirParallel)
			compareStores(t, "replayed", fromSerial, fromParallel)
		})
	}
}

// TestParallelFlushWithoutWatermark: a trailing partial batch (no final
// watermark) must still be processed by Run, matching the serial path.
func TestParallelFlushWithoutWatermark(t *testing.T) {
	msgs := oracleMessages(99) // watermark period 50: 49 trailing elements
	serial := oracleEngine(t, StateFirst, 1)
	parallel := oracleEngine(t, StateFirst, 4)
	if err := serial.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Run(msgs); err != nil {
		t.Fatal(err)
	}
	compareElements(t, "output warm", serial.Output("warm"), parallel.Output("warm"))
	compareStores(t, "store", serial.Store(), parallel.Store())
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

// TestParallelConcurrentQueries races on-demand reads against parallel
// ingestion: Query, List, and Watermark are documented safe to call
// concurrently with Run. Run under -race in CI.
func TestParallelConcurrentQueries(t *testing.T) {
	msgs := oracleMessages(4_000)
	e := oracleEngine(t, Snapshot, 4)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.Query("SELECT entity, value FROM temp"); err != nil {
					t.Error(err)
					return
				}
				e.Store().List(state.WithAttribute("temp"))
				_ = e.Watermark()
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
