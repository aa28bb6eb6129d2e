package stream

import (
	"container/heap"

	"repro/internal/element"
	"repro/internal/temporal"
)

// Reorderer buffers out-of-order elements and releases them in
// (timestamp, seq) order when watermarks advance: on a watermark w, every
// buffered element with timestamp < w is emitted in order, followed by
// the watermark itself. Elements at or after the current watermark are
// late by definition and are counted and dropped (the engine's
// correctness depends on in-order delivery; see DESIGN.md §3).
//
// Place a Reorderer ahead of the engine when the source cannot guarantee
// order, and hand the engine what Process returns.
type Reorderer struct {
	buf       elementHeap
	watermark temporal.Instant
	late      uint64
}

// NewReorderer returns an empty reorder buffer.
func NewReorderer() *Reorderer {
	return &Reorderer{watermark: temporal.MinInstant}
}

// Process implements Operator.
func (r *Reorderer) Process(m Message) []Message {
	if !m.IsWatermark {
		if m.El.Timestamp < r.watermark {
			r.late++
			return nil
		}
		heap.Push(&r.buf, m.El)
		return nil
	}
	if m.Watermark <= r.watermark {
		return nil
	}
	r.watermark = m.Watermark
	var out []Message
	for r.buf.Len() > 0 && r.buf[0].Timestamp < m.Watermark {
		out = append(out, ElementMsg(heap.Pop(&r.buf).(*element.Element)))
	}
	return append(out, m)
}

// Late reports how many elements arrived behind the watermark and were
// dropped.
func (r *Reorderer) Late() uint64 { return r.late }

// elementHeap orders elements by (timestamp, seq).
type elementHeap []*element.Element

func (h elementHeap) Len() int            { return len(h) }
func (h elementHeap) Less(i, j int) bool  { return h[i].Before(h[j]) }
func (h elementHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *elementHeap) Push(x interface{}) { *h = append(*h, x.(*element.Element)) }
func (h *elementHeap) Pop() interface{} {
	old := *h
	n := len(old)
	el := old[n-1]
	*h = old[:n-1]
	return el
}
