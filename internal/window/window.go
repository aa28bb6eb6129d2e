// Package window implements the windowing mechanisms that the paper
// critiques and the content-driven alternatives it cites: fixed count and
// time windows (CQL [3]), landmark windows, session windows (Google
// Dataflow [1]), predicate windows (Ghanem et al. [8]), and delta frames
// (Grossniklaus et al. [9]).
//
// These are the baselines for the experiments: E1/E2/E3 contrast them with
// the explicit-state model, and E9 surveys the whole landscape. The package
// is also a substrate: the CQL layer (internal/cql) builds its
// stream-to-relation operators on these windowers.
//
// A Windower consumes elements in timestamp order and emits Panes — closed
// windows with their content — either eagerly (count-based and
// content-based windows close on data) or when a watermark passes the
// window end (time-based windows).
package window

import (
	"fmt"
	"sort"

	"repro/internal/element"
	"repro/internal/temporal"
)

// Pane is one closed window: its time bounds, an optional key (sessions and
// predicate windows are per-key), and the elements it contains in
// (timestamp, seq) order.
type Pane struct {
	// Window is the half-open time extent of the pane.
	Window temporal.Interval
	// Key is the partition key for keyed windowers, empty otherwise.
	Key string
	// Elements is the window content in timestamp order.
	Elements []*element.Element
}

// String renders the pane for diagnostics.
func (p Pane) String() string {
	k := ""
	if p.Key != "" {
		k = " key=" + p.Key
	}
	return fmt.Sprintf("pane%s %s (%d elements)", k, p.Window, len(p.Elements))
}

// Windower is the incremental evaluation interface shared by all window
// types. Implementations are not safe for concurrent use; the engine drives
// them single-threaded in timestamp order.
type Windower interface {
	// Observe feeds one element and returns any panes that close
	// immediately as a result (count windows, predicate closes, frames).
	Observe(el *element.Element) []Pane
	// AdvanceTo announces that no element with Timestamp < wm will arrive
	// and returns the panes whose windows end at or before wm.
	AdvanceTo(wm temporal.Instant) []Pane
	// Pending reports how many elements are currently buffered across all
	// open windows. This is the resource-overhead metric of experiment E1:
	// fixed windows hold data the application never needed.
	Pending() int
}

// ---------------------------------------------------------------------
// Tumbling time windows

// TumblingTime partitions time into consecutive fixed-size buckets
// [k*size, (k+1)*size) and closes each bucket when the watermark passes
// its end. Once the first element arrives, every subsequent bucket closes
// in order — including empty ones — so downstream relations observe window
// replacement even across quiet periods (CQL semantics: the relation
// becomes empty when the window is empty).
type TumblingTime struct {
	size    temporal.Instant
	buckets map[temporal.Instant][]*element.Element
	pending int
	nextEnd temporal.Instant
	started bool
}

// NewTumblingTime returns a tumbling time windower with the given size,
// which must be positive.
func NewTumblingTime(size temporal.Instant) *TumblingTime {
	if size <= 0 {
		panic("window: tumbling size must be positive")
	}
	return &TumblingTime{size: size, buckets: make(map[temporal.Instant][]*element.Element)}
}

func (w *TumblingTime) bucketStart(t temporal.Instant) temporal.Instant {
	b := t / w.size * w.size
	if t < 0 && t%w.size != 0 {
		b -= w.size
	}
	return b
}

// Observe implements Windower. Time windows never close on data.
func (w *TumblingTime) Observe(el *element.Element) []Pane {
	b := w.bucketStart(el.Timestamp)
	if !w.started {
		w.started = true
		w.nextEnd = b + w.size
	}
	w.buckets[b] = append(w.buckets[b], el)
	w.pending++
	return nil
}

// AdvanceTo implements Windower, closing every bucket whose end is <= wm,
// in order, including empty buckets between occupied ones.
func (w *TumblingTime) AdvanceTo(wm temporal.Instant) []Pane {
	if !w.started {
		return nil
	}
	var panes []Pane
	for w.nextEnd <= wm {
		b := w.nextEnd - w.size
		els := w.buckets[b]
		delete(w.buckets, b)
		w.pending -= len(els)
		element.SortElements(els)
		panes = append(panes, Pane{
			Window:   temporal.NewInterval(b, w.nextEnd),
			Elements: els,
		})
		w.nextEnd += w.size
	}
	return panes
}

// Pending implements Windower.
func (w *TumblingTime) Pending() int { return w.pending }

// ---------------------------------------------------------------------
// Sliding time windows

// SlidingTime emits a pane every `slide` covering the last `size` of time:
// windows [e-size, e) for every e that is a multiple of slide. An element
// belongs to ceil(size/slide) windows.
type SlidingTime struct {
	size, slide temporal.Instant
	buf         []*element.Element // timestamp-sorted (input is ordered)
	nextEnd     temporal.Instant
	started     bool
}

// NewSlidingTime returns a sliding time windower. size and slide must be
// positive; slide > size produces sampling (hopping) windows with gaps.
func NewSlidingTime(size, slide temporal.Instant) *SlidingTime {
	if size <= 0 || slide <= 0 {
		panic("window: sliding size and slide must be positive")
	}
	return &SlidingTime{size: size, slide: slide}
}

// Observe implements Windower.
func (w *SlidingTime) Observe(el *element.Element) []Pane {
	if !w.started {
		w.started = true
		// First window end boundary at or after this element's timestamp.
		w.nextEnd = (el.Timestamp/w.slide + 1) * w.slide
		if el.Timestamp < 0 {
			w.nextEnd = (el.Timestamp / w.slide) * w.slide
			for w.nextEnd <= el.Timestamp {
				w.nextEnd += w.slide
			}
		}
	}
	w.buf = append(w.buf, el)
	return nil
}

// AdvanceTo implements Windower, emitting one pane per slide boundary that
// the watermark has passed.
func (w *SlidingTime) AdvanceTo(wm temporal.Instant) []Pane {
	if !w.started {
		return nil
	}
	var panes []Pane
	for w.nextEnd <= wm {
		start := w.nextEnd - w.size
		// Collect elements in [start, nextEnd). The buffer is sorted.
		lo := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].Timestamp >= start })
		hi := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].Timestamp >= w.nextEnd })
		els := make([]*element.Element, hi-lo)
		copy(els, w.buf[lo:hi])
		panes = append(panes, Pane{
			Window:   temporal.NewInterval(start, w.nextEnd),
			Elements: els,
		})
		w.nextEnd += w.slide
		// Evict elements that can no longer contribute to any future pane.
		evictBefore := w.nextEnd - w.size
		cut := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].Timestamp >= evictBefore })
		if cut > 0 {
			w.buf = append([]*element.Element(nil), w.buf[cut:]...)
		}
	}
	return panes
}

// Pending implements Windower.
func (w *SlidingTime) Pending() int { return len(w.buf) }

// ---------------------------------------------------------------------
// Count windows

// TumblingCount closes a window after every n elements.
type TumblingCount struct {
	n   int
	buf []*element.Element
}

// NewTumblingCount returns a tumbling count windower of size n > 0.
func NewTumblingCount(n int) *TumblingCount {
	if n <= 0 {
		panic("window: count must be positive")
	}
	return &TumblingCount{n: n}
}

// Observe implements Windower, closing a pane on every n-th element.
func (w *TumblingCount) Observe(el *element.Element) []Pane {
	w.buf = append(w.buf, el)
	if len(w.buf) < w.n {
		return nil
	}
	els := w.buf
	w.buf = nil
	return []Pane{countPane(els)}
}

// AdvanceTo implements Windower. Count windows ignore watermarks.
func (w *TumblingCount) AdvanceTo(temporal.Instant) []Pane { return nil }

// Pending implements Windower.
func (w *TumblingCount) Pending() int { return len(w.buf) }

// SlidingCount emits, every `slide` elements, a pane with the most recent
// n elements (once at least n have arrived).
type SlidingCount struct {
	n, slide int
	buf      []*element.Element
	sinceHop int
}

// NewSlidingCount returns a sliding count windower: panes of the last n
// elements, one pane every slide arrivals.
func NewSlidingCount(n, slide int) *SlidingCount {
	if n <= 0 || slide <= 0 {
		panic("window: count and slide must be positive")
	}
	return &SlidingCount{n: n, slide: slide}
}

// Observe implements Windower.
func (w *SlidingCount) Observe(el *element.Element) []Pane {
	w.buf = append(w.buf, el)
	if len(w.buf) > w.n {
		w.buf = append([]*element.Element(nil), w.buf[len(w.buf)-w.n:]...)
	}
	w.sinceHop++
	if w.sinceHop < w.slide {
		return nil
	}
	w.sinceHop = 0
	if len(w.buf) < w.n {
		return nil
	}
	els := make([]*element.Element, len(w.buf))
	copy(els, w.buf)
	return []Pane{countPane(els)}
}

// AdvanceTo implements Windower.
func (w *SlidingCount) AdvanceTo(temporal.Instant) []Pane { return nil }

// Pending implements Windower.
func (w *SlidingCount) Pending() int { return len(w.buf) }

func countPane(els []*element.Element) Pane {
	return Pane{
		Window:   temporal.NewInterval(els[0].Timestamp, els[len(els)-1].Timestamp+1),
		Elements: els,
	}
}

// ---------------------------------------------------------------------
// Landmark window

// Landmark accumulates every element since a fixed start and emits the
// entire prefix at each watermark. It models "from the beginning of the
// day" style queries; its unbounded buffer is the degenerate case of the
// resource-waste argument in §1.
type Landmark struct {
	start temporal.Instant
	buf   []*element.Element
}

// NewLandmark returns a landmark windower anchored at start.
func NewLandmark(start temporal.Instant) *Landmark { return &Landmark{start: start} }

// Observe implements Windower.
func (w *Landmark) Observe(el *element.Element) []Pane {
	if el.Timestamp >= w.start {
		w.buf = append(w.buf, el)
	}
	return nil
}

// AdvanceTo implements Windower, emitting the full prefix [start, wm).
func (w *Landmark) AdvanceTo(wm temporal.Instant) []Pane {
	if wm <= w.start {
		return nil
	}
	els := make([]*element.Element, len(w.buf))
	copy(els, w.buf)
	return []Pane{{Window: temporal.NewInterval(w.start, wm), Elements: els}}
}

// Pending implements Windower.
func (w *Landmark) Pending() int { return len(w.buf) }
