package bench

import (
	"sync"
	"time"

	"repro/internal/subscribe"
)

// Fan-out overhead: the e7 ingest workload with a large subscriber
// population attached through the subscription broker — 1k filtered
// subscribers draining concurrently plus one permanently stalled
// match-all client. The broker taps the engine's watermark hook, so the
// cost the gate bounds is the per-batch change capture (watched-store
// clones) and the non-blocking hand-off; the stalled client exercises
// the drop-and-resync path, which must never block a watermark.

// fanoutStalledQueue is the stalled subscriber's deliberately tiny queue.
const fanoutStalledQueue = 4

// fanoutRun drives n elements through the serial ingest engine with subs
// draining subscribers plus one stalled one, returning the wall-clock
// ingest time.
func fanoutRun(subs, n int) time.Duration {
	msgs := ingestMessages(n)
	e := ingestEngine()
	b := subscribe.NewBroker(e)
	names := keyNamesPrefixed("s", ingestEntities)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		s, err := b.Subscribe(subscribe.Filter{Entity: names[i%ingestEntities], Attr: "temperature"})
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func(s *subscribe.Subscriber) {
			defer wg.Done()
			for {
				if _, ok := s.Recv(); !ok {
					return
				}
			}
		}(s)
	}
	// The stalled client subscribes to everything and never reads.
	if _, err := b.Subscribe(subscribe.Filter{}, subscribe.WithQueueLen(fanoutStalledQueue)); err != nil {
		panic(err)
	}

	start := time.Now()
	if err := e.Run(msgs); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)

	// Settle the asynchronous dispatch (Close does not wait for it), so a
	// dispatch backlog never bleeds into the next pass's timed span.
	expect := uint64(n / ingestWMEvery)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m := b.Metrics()
		if m.Batches+m.SkippedBatches >= expect {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	wg.Wait()
	return elapsed
}
