package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/element"
	"repro/internal/stream"
	"repro/internal/temporal"
)

const (
	// batchSize elements, then one watermark: the micro-batch every
	// workload ingests.
	batchSize = 512
	// tsStep is the application-time gap between consecutive elements.
	// Corrections rewrite a bounded range inside one gap.
	tsStep = 1000
	// spikeAbove fires the spike rule (about 5% of elements).
	spikeAbove = 95.0
	// selectAbove is K of the select and asof classes: it matches about
	// 0.1% of lineages.
	selectAbove = 99.9
	// hotAbove is the gated processor's threshold.
	hotAbove = 99.5
	// correctedBase lifts every corrected value above any reading, so a
	// correction is recognisable in an asof result.
	correctedBase = 200.0

	attrName = "temperature"
)

const rulesSrc = `
RULE track ON Reading AS r
THEN REPLACE temperature(r.sensor) = r.celsius

RULE spike ON Reading AS r WHERE r.celsius > 95
THEN EMIT Alert(sensor = r.sensor, celsius = r.celsius)
`

// gateSrc is the one gated processor: it reads state for every element
// (readings and derived alerts alike) and passes the hottest 0.5%.
const gateSrc = "EXISTS temperature(e.sensor) AND e.celsius > 99.5"

var readingSchema = element.NewSchema(
	element.Field{Name: "sensor", Kind: element.KindString},
	element.Field{Name: "celsius", Kind: element.KindFloat},
)

// correction is one retroactive bounded-valid-time rewrite the generator
// issued: sensor's value over [from, to) became fixed at transaction
// time tt; before tt the store believed old there.
type correction struct {
	sensor   int
	from, to int64
	tt       int64
	old, new float64
}

// reference is the generator-side model every output is checked
// against: a naive map of what the rules must have derived.
type reference struct {
	names       []string
	last        []float64 // NaN until the sensor's first reading
	lastTs      []int64
	batchAlerts []int // spike alerts per micro-batch, by batch index
	refCounts

	mu          sync.Mutex // corrections: written by the driver, read by the query client
	corrections []correction
}

// refCounts counts readings, the Alerts they must have raised, and the
// readings above hotAbove. An engine's own counters must equal the
// difference between two of these.
type refCounts struct{ elements, alerts, hot int64 }

func (c refCounts) since(base refCounts) refCounts {
	return refCounts{c.elements - base.elements, c.alerts - base.alerts, c.hot - base.hot}
}

func newReference(sensors int) *reference {
	r := &reference{
		names:  make([]string, sensors),
		last:   make([]float64, sensors),
		lastTs: make([]int64, sensors),
	}
	for i := range r.names {
		r.names[i] = fmt.Sprintf("s%06d", i)
		r.last[i] = math.NaN()
	}
	return r
}

func (r *reference) observe(sensor int, celsius float64, ts int64) {
	r.last[sensor], r.lastTs[sensor] = celsius, ts
	r.elements++
	if celsius > spikeAbove {
		r.alerts++
	}
	if celsius > hotAbove {
		r.hot++
	}
}

func (r *reference) addCorrection(c correction) {
	r.mu.Lock()
	r.corrections = append(r.corrections, c)
	r.mu.Unlock()
}

// pickCorrection returns the i-th most recent correction.
func (r *reference) pickCorrection(i int) (correction, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.corrections) == 0 {
		return correction{}, false
	}
	return r.corrections[len(r.corrections)-1-i%len(r.corrections)], true
}

// seen returns the sensors with a current value, in name order.
func (r *reference) seen() []int {
	var out []int
	for i, v := range r.last {
		if !math.IsNaN(v) {
			out = append(out, i)
		}
	}
	return out
}

// digest hashes the current state (sensor, value in name order); two
// engines fed the same input must agree on it.
func (r *reference) digest() uint64 { return digestOf(r.currentRows()) }

func (r *reference) currentRows() map[string]float64 {
	rows := make(map[string]float64)
	for _, i := range r.seen() {
		rows[r.names[i]] = r.last[i]
	}
	return rows
}

func digestOf(rows map[string]float64) uint64 {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%.3f;", n, rows[n])
	}
	return h.Sum64()
}

// genConfig is the input shape of one workload.
type genConfig struct {
	sensors int
	// zipf draws sensors from Zipf(1.1), spread over the name space by a
	// fixed multiplicative step; otherwise keys are uniform.
	zipf bool
	// displace moves 2% of a closed-loop round's elements up to 64
	// positions later; a stream.Reorderer ahead of the engine restores
	// them.
	displace bool
}

// zipfStep spreads Zipf ranks over the sensor space, so hot keys do not
// share a preloaded segment.
const zipfStep = 7919

// generator produces the seeded input, one micro-batch at a time, and
// keeps the reference model in step. The engine only ever sees the
// messages it returns.
type generator struct {
	cfg   genConfig
	rng   *rand.Rand
	zipf  *rand.Zipf
	ref   *reference
	ts    int64 // timestamp of the last element issued
	batch int
	// lastBatch are the sensors of the most recent batch, in element order.
	lastBatch [batchSize]int
}

func newGenerator(seed int64, cfg genConfig) *generator {
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(seed)), ref: newReference(cfg.sensors)}
	if cfg.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(cfg.sensors-1))
	}
	return g
}

func (g *generator) reading(sensor int, celsius float64) *element.Element {
	g.ts += tsStep
	g.ref.observe(sensor, celsius, g.ts)
	return element.New("Reading", temporal.Instant(g.ts),
		element.NewTuple(readingSchema, element.String(g.ref.names[sensor]), element.Float(celsius)))
}

func (g *generator) watermark() stream.Message {
	return stream.WatermarkMsg(temporal.Instant(g.ts + 1))
}

// next returns the next micro-batch: batchSize readings and the
// watermark that closes them. With displaced, 2% of the readings sit up
// to 64 positions late: only for a caller that restores them with a
// stream.Reorderer.
func (g *generator) next(displaced bool) []stream.Message {
	msgs := make([]stream.Message, 0, batchSize+1)
	alerts := 0
	for i := 0; i < batchSize; i++ {
		var sensor int
		if g.zipf != nil {
			sensor = int(g.zipf.Uint64()) * zipfStep % g.cfg.sensors
		} else {
			sensor = g.rng.Intn(g.cfg.sensors)
		}
		celsius := float64(g.rng.Intn(100_000)) / 1000
		if celsius > spikeAbove {
			alerts++
		}
		g.lastBatch[i] = sensor
		msgs = append(msgs, stream.ElementMsg(g.reading(sensor, celsius)))
	}
	if displaced {
		for i := range msgs {
			if g.rng.Intn(50) == 0 {
				j := i + 1 + g.rng.Intn(64)
				if j >= len(msgs) {
					j = len(msgs) - 1
				}
				msgs[i], msgs[j] = msgs[j], msgs[i]
			}
		}
	}
	g.ref.batchAlerts = append(g.ref.batchAlerts, alerts)
	g.batch++
	return append(msgs, g.watermark())
}

// sequential returns a batch writing sensors [from, to) in order with
// the given value function: the preload of serve-cold.
func (g *generator) sequential(from, to int, value func(sensor int) float64) []stream.Message {
	msgs := make([]stream.Message, 0, to-from+1)
	for s := from; s < to; s++ {
		msgs = append(msgs, stream.ElementMsg(g.reading(s, value(s))))
	}
	return append(msgs, g.watermark())
}

// nextCorrection picks the retroactive correction that follows the
// batch just issued: a sensor that batch wrote, a range inside the gap
// after its last reading, and a value no reading can have. tt is filled
// in by the driver once the store has recorded it.
func (g *generator) nextCorrection() correction {
	sensor := g.lastBatch[g.rng.Intn(batchSize)]
	from := g.ref.lastTs[sensor] + tsStep/10
	c := correction{
		sensor: sensor, from: from, to: from + tsStep/10,
		old: g.ref.last[sensor], new: correctedBase + float64(g.batch%1000),
	}
	// A second correction of this sensor before its next reading takes the
	// next free range: the belief it replaces there is still old.
	g.ref.lastTs[sensor] = c.to
	return c
}
