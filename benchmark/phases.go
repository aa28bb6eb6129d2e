package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// ingestRate is the fixed open-loop rate of every serve phase, in
// elements per second: about 24 micro-batches a second, some 15% of what
// the contended driver sustains at this commit, so read and delivery
// latencies do not shift when ingest gets faster. (At 50,000 the flusher
// and merger rewrite ~100 MB/s and the driver itself starts late.)
const ingestRate = 12_500

// batchPeriod is the open-loop schedule: one micro-batch is due every
// batchSize/ingestRate seconds.
const batchPeriod = time.Second * batchSize / ingestRate

// Query classes, in the order of the per-class sample arrays.
const (
	qFact = iota
	qSelect
	qScan
	qAsof
	nClassesQ
)

var (
	classNamesQ = [nClassesQ]string{"fact", "select", "scan", "asof"}
	// queryCycle is the closed-loop client's mix: 8 fact, 4 select,
	// 1 scan, 2 asof, interleaved so no class runs in a burst.
	queryCycle = [15]int{qFact, qSelect, qFact, qAsof, qFact, qSelect, qFact, qScan,
		qFact, qSelect, qFact, qAsof, qFact, qSelect, qFact}
	selectText = fmt.Sprintf("SELECT entity, value FROM %s WHERE value > %g", attrName, selectAbove)
	scanText   = "SELECT entity, value FROM " + attrName
)

func asofText(validAt, sysAt int64) string {
	return fmt.Sprintf("SELECT entity, value FROM %s ASOF %d SYSTEM TIME ASOF %d WHERE value > %g",
		attrName, validAt, sysAt, selectAbove)
}

// bulkOut is what one closed-loop ingest round measured.
type bulkOut struct {
	elements  int
	inEngine  time.Duration // time inside Engine.Run / Process
	ack       lat           // per micro-batch, call to return
	reorderNs int64
	late      uint64
}

// bulkRound drives batches micro-batches through e, closed loop: the
// next batch is generated (outside the timed span), restored to
// timestamp order by a stream.Reorderer, and handed to the engine only
// after the previous one returned.
func (x *env) bulkRound(e *core.Engine, g *generator, batches int) (bulkOut, error) {
	var out bulkOut
	ro := stream.NewReorderer()
	for b := 0; b < batches; b++ {
		raw := g.next(g.cfg.displace)
		o := x.tr.begin("stream.reorder", nil)
		start := time.Now()
		var msgs []stream.Message
		for _, m := range raw {
			msgs = append(msgs, ro.Process(m)...)
		}
		out.reorderNs += int64(time.Since(start))
		o.end()
		x.attempt(1)
		if len(msgs) != len(raw) {
			x.fail("reorderer released %d of %d messages", len(msgs), len(raw))
			continue
		}
		d, err := x.runBatch(e, msgs)
		if err != nil {
			return out, err
		}
		out.ack.add(d)
		out.inEngine += d
		out.elements += len(msgs) - 1
	}
	out.late = ro.Late()
	if out.late > 0 {
		x.fail("reorderer dropped %d late elements", out.late)
	}
	return out, nil
}

// serveOut is what one serve phase measured.
type serveOut struct {
	batches, elements int
	inEngine          time.Duration
	ack               lat // due time -> Run returned
	ackBase           lat // the same while span recording is paused (traced pass)
	queueDepthMax     int // broker queue depth, sampled per batch (traced pass)
	late              lat // how late the generator started each batch
	q                 [nClassesQ]lat
	delivery          lat // due time -> subscriber Recv
	hookToRecv        lat // OnWatermark hook -> subscriber Recv (traced pass)
}

// servePhase runs the mixed load against a served engine for dur: an
// open-loop driver ingesting at ingestRate with one retroactive
// correction per batch, one closed-loop query client, one SSE
// subscriber on stream=Alert. It returns when all three have stopped.
func (x *env) servePhase(f *fixture, g *generator, dur time.Duration) (serveOut, error) {
	// The query client and the subscriber stand for processes a deployment
	// runs outside the server. While they run, each gets a P of its own,
	// so the kernel and not the Go scheduler's 10 ms slices decides who
	// waits when load generator and engine want the same core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 2)
	var out serveOut
	batches := int(dur / batchPeriod)
	if batches < 1 {
		batches = 1
	}
	// Expected alerts per batch, published by the driver before the batch
	// runs and read by the subscriber when its delivery arrives.
	expect := make([]atomic.Int32, batches)
	baseTs := g.ts

	sub, err := f.sub.Subscribe(server.SubscribeOptions{Stream: "Alert"})
	if err != nil {
		return out, fmt.Errorf("subscribe: %w", err)
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		t0       time.Time
		ready    = make(chan struct{})
		received atomic.Int64
		lastSeen atomic.Int64 // highest batch index delivered, +1
	)
	wg.Add(2)
	go func() { // subscriber
		defer wg.Done()
		<-ready
		for {
			ev, err := sub.Recv()
			if err != nil {
				return
			}
			now := time.Now()
			b := int((int64(ev.Watermark)-1-baseTs)/(batchSize*tsStep)) - 1
			if ev.Kind != "deltas" || b < 0 || b >= batches {
				x.fail("delivery kind=%s watermark=%d is not one batch's deltas", ev.Kind, ev.Watermark)
				continue
			}
			out.delivery.add(now.Sub(t0.Add(time.Duration(b) * batchPeriod)))
			if at, ok := x.tr.hookTime(int64(ev.Watermark)); ok {
				out.hookToRecv.add(now.Sub(at))
			}
			if want := int(expect[b].Load()); len(ev.Emitted) != want {
				x.fail("batch %d delivered %d alerts, reference has %d", b, len(ev.Emitted), want)
			}
			received.Add(1)
			lastSeen.Store(int64(b) + 1)
		}
	}()
	go func() { // query client
		defer wg.Done()
		<-ready
		x.queryLoop(f, g.ref, &stop, 0, &out)
	}()

	t0 = time.Now()
	close(ready)
	var driveErr error
	expected := 0
	for b := 0; b < batches; b++ {
		msgs := g.next(false)
		corr := g.nextCorrection()
		alerts := g.ref.batchAlerts[len(g.ref.batchAlerts)-1]
		expect[b].Store(int32(alerts))
		if alerts > 0 {
			expected++
		}
		due := t0.Add(time.Duration(b) * batchPeriod)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out.late.add(time.Since(due))
		// A traced pass records no spans for every seventh batch: the
		// baseline of trace.overhead_ratio. (Seven, because the flusher
		// starts every 16th batch and an even stride would always or never
		// meet it.)
		paused := x.tr != nil && b%7 == 0
		x.tr.pause(paused)
		x.attempt(1)
		d, err := x.runBatch(f.eng, msgs)
		if err != nil {
			driveErr = err
			break
		}
		if paused {
			out.ackBase.add(time.Since(due))
		} else {
			out.ack.add(time.Since(due))
		}
		if x.tr != nil {
			if depth := f.srv.Broker().Metrics().QueueDepth; depth > out.queueDepthMax {
				out.queueDepthMax = depth
			}
		}
		out.inEngine += d
		out.elements += len(msgs) - 1
		out.batches++

		x.attempt(1)
		if err := x.correct(f.eng, g.ref, corr); err != nil {
			x.fail("correction: %v", err)
		}
	}
	x.tr.pause(false)
	// A generator that ended more than one period behind and was still
	// falling back never offered the load it claims.
	if n := out.late.n(); n >= 20 {
		tail := out.late.ms[n-n/10:]
		if min := quantile(tail, 0); min > float64(batchPeriod)/1e6 && tail[len(tail)-1] > tail[0] {
			x.fail("generator fell behind: last batches started %.1f ms late and growing", min)
		}
	}
	stop.Store(true)
	// Wait for the last delivery before closing the stream.
	for deadline := time.Now().Add(2 * time.Second); lastSeen.Load() < int64(out.batches) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	_ = sub.Close()
	wg.Wait()
	x.attempt(expected)
	if got := int(received.Load()); got < expected && driveErr == nil {
		for i := got; i < expected; i++ {
			x.fail("delivery missing: received %d of %d", got, expected)
		}
	}
	return out, driveErr
}

// idlePhase measures reads and delivery on a served engine nothing else
// is using — how ingest-* get their read and delivery metrics, after
// each round's ingest is over. A few corrections give the asof class
// its targets; then the query mix runs for cycles cycles on the calling
// goroutine; then batches micro-batches go through in lock step with an
// SSE subscriber: each batch's delivery is awaited before the next batch
// starts, timed from the call of Run.
func (x *env) idlePhase(f *fixture, g *generator, cycles, batches int, out *serveOut) error {
	for i := 0; i < idleCorrections; i++ {
		x.attempt(1)
		if err := x.correct(f.eng, g.ref, g.nextCorrection()); err != nil {
			x.fail("correction: %v", err)
		}
	}
	x.queryLoop(f, g.ref, new(atomic.Bool), cycles*len(queryCycle), out)

	sub, err := f.sub.Subscribe(server.SubscribeOptions{Stream: "Alert"})
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	events := make(chan *server.Event)
	go func() {
		defer close(events)
		for {
			ev, err := sub.Recv()
			if err != nil {
				return
			}
			events <- ev
		}
	}()
	defer func() {
		_ = sub.Close()
		for range events { // until the receiver has seen the close
		}
	}()
	for b := 0; b < batches; b++ {
		msgs := g.next(false)
		want := g.ref.batchAlerts[len(g.ref.batchAlerts)-1]
		wm := msgs[len(msgs)-1].Watermark
		x.attempt(1)
		start := time.Now()
		d, err := x.runBatch(f.eng, msgs)
		if err != nil {
			return err
		}
		out.inEngine += d
		out.elements += len(msgs) - 1
		out.batches++
		if want == 0 {
			continue
		}
		x.attempt(1)
		select {
		case ev := <-events:
			now := time.Now()
			out.delivery.add(now.Sub(start))
			if at, ok := x.tr.hookTime(int64(ev.Watermark)); ok {
				out.hookToRecv.add(now.Sub(at))
			}
			if ev.Kind != "deltas" || ev.Watermark != wm || len(ev.Emitted) != want {
				x.fail("delivery kind=%s watermark=%d alerts=%d, want deltas watermark=%d alerts=%d",
					ev.Kind, ev.Watermark, len(ev.Emitted), wm, want)
			}
		case <-time.After(5 * time.Second):
			x.fail("delivery of watermark %d missing", wm)
			return nil
		}
	}
	return nil
}

// correct applies one retroactive bounded-valid-time correction through
// the bitemporal options API and records the transaction time the store
// gave it.
func (x *env) correct(e *core.Engine, ref *reference, c correction) error {
	name := ref.names[c.sensor]
	root := x.tr.begin(rootCorrection, nil)
	o := x.tr.begin("state.db_put", root)
	x.tr.setDriver(o)
	err := e.DB().Put(name, attrName, element.Float(c.new),
		state.WithValidTime(temporal.Instant(c.from)), state.WithEndValidTime(temporal.Instant(c.to)))
	o.end()
	x.tr.setDriver(nil)
	root.end()
	if err != nil {
		return err
	}
	f, ok := e.DB().Find(name, attrName, state.AsOfValidTime(temporal.Instant(c.from)))
	if !ok {
		return fmt.Errorf("corrected version of %s not readable", name)
	}
	c.tt = int64(f.RecordedAt)
	ref.addCorrection(c)
	return nil
}

// queryLoop is the closed-loop client: one request in flight, cycling
// the fixed mix until told to stop or, with limit > 0, for limit
// requests. Every 64th response is checked against what must hold while
// ingest is still running.
func (x *env) queryLoop(f *fixture, ref *reference, stop *atomic.Bool, limit int, out *serveOut) {
	rng := rand.New(rand.NewSource(x.seed + 1))
	for i := 0; !stop.Load() && (limit == 0 || i < limit); i++ {
		class := queryCycle[i%len(queryCycle)]
		check := i%64 == 63
		x.attempt(1)
		var err error
		root := x.tr.begin(classNamesQ[class], nil)
		x.tr.setClient(root)
		start := time.Now()
		switch class {
		case qFact:
			sensor := rng.Intn(len(ref.names))
			fact, found, e := f.query.Current(ref.names[sensor], attrName)
			if err = e; err == nil && check && found {
				if v, _ := fact.Value.AsFloat(); fact.Entity != ref.names[sensor] || v < 0 || v >= 100 {
					err = fmt.Errorf("fact %s returned %s=%v", ref.names[sensor], fact.Entity, fact.Value)
				}
			}
		case qSelect, qScan:
			text := selectText
			if class == qScan {
				text = scanText
			}
			res, e := f.query.Query(text)
			if err = e; err == nil && check {
				for _, row := range res.Rows {
					if v, _ := row[1].AsFloat(); (class == qSelect && v <= selectAbove) || v >= 100 || v < 0 {
						err = fmt.Errorf("%s returned %v=%v", classNamesQ[class], row[0], row[1])
						break
					}
				}
				if err == nil && len(res.Rows) > len(ref.names) {
					err = fmt.Errorf("%s returned %d rows for %d sensors", classNamesQ[class], len(res.Rows), len(ref.names))
				}
			}
		case qAsof:
			// A past point: one in four before a correction was recorded
			// (the old value must still answer), the rest at it.
			c, ok := ref.pickCorrection(rng.Intn(64))
			before := rng.Intn(4) == 0
			validAt, sysAt := int64(1), int64(1)
			if ok {
				validAt, sysAt = c.from, c.tt
				if before {
					sysAt--
				}
			}
			res, e := f.query.Query(asofText(validAt, sysAt))
			if err = e; err == nil && check && ok {
				err = checkAsof(res.Rows, ref.names[c.sensor], c, before)
			}
		}
		d := time.Since(start)
		x.tr.setClient(nil)
		root.end()
		if err != nil {
			x.fail("%s: %v", classNamesQ[class], err)
			continue
		}
		out.q[class].add(d)
	}
}
