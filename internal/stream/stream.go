// Package stream provides the dataflow substrate: messages, operators,
// sources, sinks, reordering, and merging of timestamp-ordered inputs.
//
// The paper's Figure 1 routes input streams into both the state management
// component and the stream processing component. This package supplies the
// plumbing those components share: a synchronous operator model that the
// engine drives for deterministic, timestamp-ordered processing.
//
// Watermarks travel in-band: a Message carries either an element or a
// watermark asserting that no element with a smaller timestamp will follow.
// Window operators and the engine use watermarks to close windows and to
// take state snapshots.
package stream

import (
	"container/heap"

	"repro/internal/element"
	"repro/internal/temporal"
)

// Message is the unit that flows between operators: exactly one of an
// element or a watermark.
type Message struct {
	// El is the payload element; nil for watermark messages.
	El *element.Element
	// Watermark, valid when IsWatermark, asserts that all future elements
	// have Timestamp >= Watermark.
	Watermark temporal.Instant
	// IsWatermark distinguishes the two variants.
	IsWatermark bool
}

// ElementMsg wraps an element in a Message.
func ElementMsg(el *element.Element) Message { return Message{El: el} }

// WatermarkMsg builds a watermark message.
func WatermarkMsg(t temporal.Instant) Message {
	return Message{Watermark: t, IsWatermark: true}
}

// Operator is a synchronous stream transformer: it consumes one message and
// emits zero or more messages. Operators are driven single-threaded by the
// engine, so implementations need no internal locking.
type Operator interface {
	Process(m Message) []Message
}

// Collector is a sink operator that retains every element it sees.
type Collector struct {
	Elements  []*element.Element
	Watermark temporal.Instant
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{Watermark: temporal.MinInstant} }

// Process implements Operator, retaining elements and tracking the highest
// watermark.
func (c *Collector) Process(m Message) []Message {
	if m.IsWatermark {
		if m.Watermark > c.Watermark {
			c.Watermark = m.Watermark
		}
	} else {
		c.Elements = append(c.Elements, m.El)
	}
	return nil
}

// FromElements converts a timestamp-sorted batch into messages, assigning
// arrival sequence numbers and appending a final watermark past the last
// timestamp so downstream windows flush.
func FromElements(els []*element.Element) []Message {
	ms := make([]Message, 0, len(els)+1)
	last := temporal.MinInstant
	for i, el := range els {
		el.Seq = uint64(i)
		if el.Timestamp > last {
			last = el.Timestamp
		}
		ms = append(ms, ElementMsg(el))
	}
	ms = append(ms, WatermarkMsg(last+1))
	return ms
}

// WithPeriodicWatermarks interleaves watermark messages into a
// timestamp-sorted element batch every `period` of application time. The
// final watermark still flushes everything.
func WithPeriodicWatermarks(els []*element.Element, period temporal.Instant) []Message {
	if len(els) == 0 {
		return []Message{WatermarkMsg(temporal.MinInstant + 1)}
	}
	ms := make([]Message, 0, len(els)+len(els)/4+1)
	next := els[0].Timestamp + period
	last := temporal.MinInstant
	for i, el := range els {
		el.Seq = uint64(i)
		for el.Timestamp >= next {
			ms = append(ms, WatermarkMsg(next))
			next += period
		}
		if el.Timestamp > last {
			last = el.Timestamp
		}
		ms = append(ms, ElementMsg(el))
	}
	ms = append(ms, WatermarkMsg(last+1))
	return ms
}

// mergeItem is one head-of-stream entry in the merge heap.
type mergeItem struct {
	el  *element.Element
	src int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].el.Timestamp != h[j].el.Timestamp {
		return h[i].el.Timestamp < h[j].el.Timestamp
	}
	if h[i].el.Seq != h[j].el.Seq {
		return h[i].el.Seq < h[j].el.Seq
	}
	return h[i].src < h[j].src
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// MergeSorted merges several timestamp-sorted element slices into one
// timestamp-sorted slice using a k-way heap merge. Ties break by arrival
// sequence, then by input index, so the merge is deterministic.
func MergeSorted(inputs ...[]*element.Element) []*element.Element {
	h := make(mergeHeap, 0, len(inputs))
	pos := make([]int, len(inputs))
	total := 0
	for i, in := range inputs {
		total += len(in)
		if len(in) > 0 {
			h = append(h, mergeItem{el: in[0], src: i})
			pos[i] = 1
		}
	}
	heap.Init(&h)
	out := make([]*element.Element, 0, total)
	for h.Len() > 0 {
		it := heap.Pop(&h).(mergeItem)
		out = append(out, it.el)
		if pos[it.src] < len(inputs[it.src]) {
			heap.Push(&h, mergeItem{el: inputs[it.src][pos[it.src]], src: it.src})
			pos[it.src]++
		}
	}
	return out
}
