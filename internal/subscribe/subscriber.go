package subscribe

import (
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// Subscriber is one registered subscription: a bounded delivery queue
// plus the drop-and-resync state machine. Receive deliveries with Recv
// (or TryRecv) and release the subscription with Close.
//
// A Subscriber never applies backpressure to the engine or the broker:
// when its queue is full the broker marks it lost and stops enqueuing;
// the first Recv after the queue drains returns one Resync catch-up and
// deliveries resume.
type Subscriber struct {
	b      *Broker
	id     uint64
	filter Filter
	queue  chan Delivery
	// lost marks an overflowed (or stale-cursor) subscription: set by
	// the broker, cleared by the resync that repairs it.
	lost atomic.Bool
	// kick wakes a blocked Recv when lost is set without an enqueue
	// (broker-backlog overflow marks subscribers lost out of band).
	kick      chan struct{}
	closed    chan struct{}
	closeOnce sync.Once

	// Dispatch scratch, guarded by the broker mutex: the delivery being
	// assembled for the current batch and the query-result fingerprint.
	pend      Delivery
	inTouched bool
	lastFP    string
	// prepared is the continuous query's parsed-and-planned handle,
	// built once at Subscribe; nil when the filter carries no query.
	prepared *query.Prepared
}

// Recv blocks until the next delivery and returns it. After the queued
// prefix of a lagging subscription drains, Recv synthesizes the pending
// Resync catch-up. It returns ok=false once the subscription is closed
// and its queue fully drained.
func (s *Subscriber) Recv() (Delivery, bool) {
	for {
		// Drain the queued prefix first: deliveries already accepted
		// precede any resync in watermark order.
		select {
		case d := <-s.queue:
			return d, true
		default:
		}
		if s.lost.Load() {
			if d, ok := s.b.resync(s); ok {
				return d, true
			}
		}
		select {
		case d := <-s.queue:
			return d, true
		case <-s.kick:
			// Lost was set without an enqueue; loop to resync.
		case <-s.closed:
			select {
			case d := <-s.queue:
				return d, true
			default:
				return Delivery{}, false
			}
		}
	}
}

// TryRecv returns the next delivery without blocking. Like Recv it
// synthesizes the pending Resync once the queue has drained; ok=false
// means nothing is currently deliverable.
func (s *Subscriber) TryRecv() (Delivery, bool) {
	select {
	case d := <-s.queue:
		return d, true
	default:
	}
	if s.lost.Load() {
		return s.b.resync(s)
	}
	return Delivery{}, false
}

// Close unregisters the subscription. Queued deliveries remain readable;
// Recv returns ok=false after they drain.
func (s *Subscriber) Close() {
	s.b.remove(s)
	s.closeOnce.Do(func() { close(s.closed) })
}
