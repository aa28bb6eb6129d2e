package window

import (
	"sort"

	"repro/internal/element"
	"repro/internal/temporal"
)

// ---------------------------------------------------------------------
// Session windows (Google Dataflow [1])

// Session groups elements per key into sessions separated by a minimum gap
// of inactivity. A session closes when the watermark passes the last
// element's timestamp plus the gap. This is the paper's first cited
// content-sensitive alternative: the click-stream use case of §1 maps each
// user's site visit to one session.
type Session struct {
	gap     temporal.Instant
	keyFn   func(*element.Element) string
	open    map[string][]*element.Element
	pending int
}

// NewSession returns a session windower with the given inactivity gap and
// key extractor.
func NewSession(gap temporal.Instant, keyFn func(*element.Element) string) *Session {
	if gap <= 0 {
		panic("window: session gap must be positive")
	}
	return &Session{gap: gap, keyFn: keyFn, open: make(map[string][]*element.Element)}
}

// Observe implements Windower. Input arrives in timestamp order, so an
// element either extends the key's open session or, if the gap has passed,
// closes it and starts a new one.
func (w *Session) Observe(el *element.Element) []Pane {
	k := w.keyFn(el)
	buf := w.open[k]
	var closed []Pane
	if n := len(buf); n > 0 && el.Timestamp >= buf[n-1].Timestamp+w.gap {
		closed = append(closed, w.sessionPane(k, buf))
		w.pending -= n
		buf = nil
	}
	w.open[k] = append(buf, el)
	w.pending++
	return closed
}

// AdvanceTo implements Windower, closing sessions whose gap has expired by
// the watermark.
func (w *Session) AdvanceTo(wm temporal.Instant) []Pane {
	var keys []string
	for k, buf := range w.open {
		if buf[len(buf)-1].Timestamp+w.gap <= wm {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	panes := make([]Pane, 0, len(keys))
	for _, k := range keys {
		buf := w.open[k]
		delete(w.open, k)
		w.pending -= len(buf)
		panes = append(panes, w.sessionPane(k, buf))
	}
	return panes
}

// Pending implements Windower.
func (w *Session) Pending() int { return w.pending }

func (w *Session) sessionPane(key string, els []*element.Element) Pane {
	return Pane{
		Window:   temporal.NewInterval(els[0].Timestamp, els[len(els)-1].Timestamp+w.gap),
		Key:      key,
		Elements: els,
	}
}

// ---------------------------------------------------------------------
// Predicate windows (Ghanem et al. [8])

// Predicate maintains one window per key that opens when an element
// satisfies the open predicate and closes when a later element of the same
// key satisfies the close predicate. Elements for keys with no open window
// are ignored. This models the "view maintenance" semantics of predicate
// windows: the window content is exactly the per-key episode delimited by
// the data itself — e.g. a user's events between login and logout.
type Predicate struct {
	keyFn   func(*element.Element) string
	opens   func(*element.Element) bool
	closes  func(*element.Element) bool
	open    map[string][]*element.Element
	pending int
}

// NewPredicate returns a predicate windower. An element may both open and
// close (opens is checked only when no window is open for the key).
func NewPredicate(
	keyFn func(*element.Element) string,
	opens, closes func(*element.Element) bool,
) *Predicate {
	return &Predicate{
		keyFn:  keyFn,
		opens:  opens,
		closes: closes,
		open:   make(map[string][]*element.Element),
	}
}

// Observe implements Windower: content decides both opening and closing,
// so panes can emit immediately.
func (w *Predicate) Observe(el *element.Element) []Pane {
	k := w.keyFn(el)
	buf, isOpen := w.open[k]
	if !isOpen {
		if !w.opens(el) {
			return nil
		}
		w.open[k] = []*element.Element{el}
		w.pending++
		if !w.closes(el) {
			return nil
		}
		buf = w.open[k]
	} else {
		buf = append(buf, el)
		w.open[k] = buf
		w.pending++
		if !w.closes(el) {
			return nil
		}
	}
	delete(w.open, k)
	w.pending -= len(buf)
	return []Pane{{
		Window:   temporal.NewInterval(buf[0].Timestamp, buf[len(buf)-1].Timestamp+1),
		Key:      k,
		Elements: buf,
	}}
}

// AdvanceTo implements Windower. Predicate windows are purely
// content-driven; watermarks do not close them.
func (w *Predicate) AdvanceTo(temporal.Instant) []Pane { return nil }

// Pending implements Windower.
func (w *Predicate) Pending() int { return w.pending }

// ---------------------------------------------------------------------
// Frames (Grossniklaus et al. [9])

// DeltaFrame segments the stream into runs where a numeric field stays
// within +/- delta of the frame's first value; a departure closes the
// frame and opens a new one seeded with the departing element.
type DeltaFrame struct {
	field string
	delta float64
	base  float64
	buf   []*element.Element
}

// NewDeltaFrame returns a delta framer over the named numeric field.
func NewDeltaFrame(field string, delta float64) *DeltaFrame {
	return &DeltaFrame{field: field, delta: delta}
}

// Observe implements Windower.
func (w *DeltaFrame) Observe(el *element.Element) []Pane {
	v, ok := el.MustGet(w.field).AsFloat()
	if !ok {
		return nil
	}
	if len(w.buf) == 0 {
		w.base = v
		w.buf = []*element.Element{el}
		return nil
	}
	if diff := v - w.base; diff <= w.delta && diff >= -w.delta {
		w.buf = append(w.buf, el)
		return nil
	}
	els := w.buf
	w.base = v
	w.buf = []*element.Element{el}
	return []Pane{{
		Window:   temporal.NewInterval(els[0].Timestamp, el.Timestamp),
		Elements: els,
	}}
}

// AdvanceTo implements Windower.
func (w *DeltaFrame) AdvanceTo(temporal.Instant) []Pane { return nil }

// Flush closes any open frame at the given end time; call at end of stream.
func (w *DeltaFrame) Flush(end temporal.Instant) []Pane {
	if len(w.buf) == 0 {
		return nil
	}
	els := w.buf
	w.buf = nil
	return []Pane{{
		Window:   temporal.NewInterval(els[0].Timestamp, end),
		Elements: els,
	}}
}

// Pending implements Windower.
func (w *DeltaFrame) Pending() int { return len(w.buf) }
