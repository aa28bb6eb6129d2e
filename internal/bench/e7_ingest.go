package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// End-to-end ingestion throughput: elements/sec through Engine.Run — the
// paper's Figure-1 pipeline (rules → state repository → stream
// processors) measured as a whole. The workload is the canonical sensor
// shape: a REPLACE rule tracking per-sensor state (the group-commit hot
// path), an EMIT rule deriving alert elements, and a gated processor
// reading state per element, with a watermark every ingestWMEvery
// elements delimiting micro-batches.

const (
	ingestEntities = 1_000
	ingestWMEvery  = 512
)

const ingestRules = `
RULE track ON Reading AS r
THEN REPLACE temperature(r.sensor) = r.celsius

RULE spike ON Reading AS r WHERE r.celsius > 95
THEN EMIT Alert(sensor = r.sensor, celsius = r.celsius)
`

// ingestMessages builds n Reading elements round-robined over the sensor
// population with strictly increasing timestamps, watermarked every
// ingestWMEvery elements. Messages are reusable across runs: the engine
// never mutates input elements.
func ingestMessages(n int) []stream.Message {
	names := keyNamesPrefixed("s", ingestEntities)
	schema := element.NewSchema(
		element.Field{Name: "sensor", Kind: element.KindString},
		element.Field{Name: "celsius", Kind: element.KindFloat},
	)
	els := make([]*element.Element, n)
	for i := 0; i < n; i++ {
		els[i] = element.New("Reading", temporal.Instant(i+1),
			element.NewTuple(schema, element.String(names[i%ingestEntities]),
				element.Float(float64(20+i%80))))
	}
	return stream.WithPeriodicWatermarks(els, ingestWMEvery)
}

// ingestEngine deploys the ingest workload's rules and a cheap gated
// processor on a fresh engine with any extra options (a durable
// directory, say).
func ingestEngine(opts ...core.Option) *core.Engine {
	base := []core.Option{core.WithPolicy(core.StateFirst), core.WithEmittedRetention(1024)}
	e := core.New(append(base, opts...)...)
	if err := e.DeployRules(ingestRules); err != nil {
		panic(err)
	}
	gate, err := lang.ParseExpr("e.celsius < -1000") // drops everything: measures the pipeline, not sink retention
	if err != nil {
		panic(err)
	}
	if err := e.DeployProcessor(&core.Processor{Name: "cold", Source: "Reading", Gate: gate}); err != nil {
		panic(err)
	}
	return e
}

// ingestThroughput runs n elements through a fresh engine and reports
// wall-clock time plus allocations per element (heap allocation delta
// over the run, measured on this goroutine's run of the whole pipeline).
func ingestThroughput(n int) (time.Duration, float64) {
	return ingestRun(ingestEngine(), n)
}

// ingestRun runs n ingest elements through e and reports the wall-clock
// time and the allocations per element.
func ingestRun(e *core.Engine, n int) (time.Duration, float64) {
	msgs := ingestMessages(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := e.Run(msgs); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// keyNamesPrefixed pre-renders n key names with a prefix.
func keyNamesPrefixed(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	return out
}
