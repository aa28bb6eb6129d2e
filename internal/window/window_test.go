package window

import (
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

var sch = element.NewSchema(
	element.Field{Name: "user", Kind: element.KindString},
	element.Field{Name: "v", Kind: element.KindFloat},
)

func el(ts int64, user string, v float64) *element.Element {
	e := element.New("T", temporal.Instant(ts),
		element.NewTuple(sch, element.String(user), element.Float(v)))
	e.Seq = uint64(ts)
	return e
}

func feed(w Windower, els []*element.Element, finalWM temporal.Instant) []Pane {
	var panes []Pane
	for _, e := range els {
		panes = append(panes, w.Observe(e)...)
	}
	panes = append(panes, w.AdvanceTo(finalWM)...)
	return panes
}

func TestTumblingTime(t *testing.T) {
	w := NewTumblingTime(10)
	els := []*element.Element{el(0, "a", 1), el(5, "a", 1), el(10, "a", 1), el(25, "a", 1)}
	for _, e := range els {
		if got := w.Observe(e); got != nil {
			t.Fatal("time windows must not close on data")
		}
	}
	if w.Pending() != 4 {
		t.Errorf("pending: %d", w.Pending())
	}
	panes := w.AdvanceTo(20)
	if len(panes) != 2 {
		t.Fatalf("panes at wm=20: %d", len(panes))
	}
	if panes[0].Window != temporal.NewInterval(0, 10) || len(panes[0].Elements) != 2 {
		t.Errorf("pane 0: %v", panes[0])
	}
	if panes[1].Window != temporal.NewInterval(10, 20) || len(panes[1].Elements) != 1 {
		t.Errorf("pane 1: %v", panes[1])
	}
	if w.Pending() != 1 {
		t.Errorf("pending after close: %d", w.Pending())
	}
	if got := w.AdvanceTo(20); len(got) != 0 {
		t.Error("re-advancing must not re-emit")
	}
	panes = w.AdvanceTo(30)
	if len(panes) != 1 || panes[0].Window != temporal.NewInterval(20, 30) {
		t.Errorf("final pane: %v", panes)
	}
}

func TestTumblingTimePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewTumblingTime(0)
}

func TestSlidingTime(t *testing.T) {
	w := NewSlidingTime(10, 5)
	els := []*element.Element{el(1, "a", 1), el(4, "a", 1), el(8, "a", 1), el(12, "a", 1)}
	for _, e := range els {
		w.Observe(e)
	}
	panes := w.AdvanceTo(15)
	// Window ends at 5, 10, 15: [-5,5)={1,4}, [0,10)={1,4,8}, [5,15)={8,12}.
	if len(panes) != 3 {
		t.Fatalf("panes: %d", len(panes))
	}
	wantCounts := []int{2, 3, 2}
	for i, p := range panes {
		if len(p.Elements) != wantCounts[i] {
			t.Errorf("pane %d (%v): %d elements, want %d", i, p.Window, len(p.Elements), wantCounts[i])
		}
	}
	if panes[2].Window != temporal.NewInterval(5, 15) {
		t.Errorf("pane 2 bounds: %v", panes[2].Window)
	}
	// Eviction: elements below 15-10+5 = next window start are gone.
	if w.Pending() != 1 { // only ts=12 can contribute to [10,20)
		t.Errorf("pending after eviction: %d", w.Pending())
	}
}

func TestSlidingTimeHoppingGap(t *testing.T) {
	// slide > size: sampling windows with gaps.
	w := NewSlidingTime(5, 10)
	for _, e := range []*element.Element{el(1, "a", 1), el(7, "a", 1), el(9, "a", 1)} {
		w.Observe(e)
	}
	panes := w.AdvanceTo(20)
	// Ends at 10 and 20: [5,10)={7,9}, [15,20)={}.
	if len(panes) != 2 || len(panes[0].Elements) != 2 || len(panes[1].Elements) != 0 {
		t.Fatalf("hopping panes: %v", panes)
	}
}

func TestTumblingCount(t *testing.T) {
	w := NewTumblingCount(3)
	var panes []Pane
	for _, e := range []*element.Element{el(1, "a", 1), el(2, "a", 1), el(3, "a", 1), el(4, "a", 1)} {
		panes = append(panes, w.Observe(e)...)
	}
	if len(panes) != 1 || len(panes[0].Elements) != 3 {
		t.Fatalf("panes: %v", panes)
	}
	if panes[0].Window != temporal.NewInterval(1, 4) {
		t.Errorf("bounds: %v", panes[0].Window)
	}
	if w.Pending() != 1 {
		t.Errorf("pending: %d", w.Pending())
	}
	if got := w.AdvanceTo(100); len(got) != 0 {
		t.Error("count windows ignore watermarks")
	}
}

func TestSlidingCount(t *testing.T) {
	w := NewSlidingCount(3, 2)
	var panes []Pane
	for i := int64(1); i <= 7; i++ {
		panes = append(panes, w.Observe(el(i, "a", 1))...)
	}
	// Hops after elements 2,4,6; window full from element 3 → panes at 4 and 6.
	if len(panes) != 2 {
		t.Fatalf("panes: %d", len(panes))
	}
	if got := panes[0].Elements[0].Timestamp; got != 2 {
		t.Errorf("first pane starts at ts %d", got)
	}
	if got := panes[1].Elements[2].Timestamp; got != 6 {
		t.Errorf("second pane ends at ts %d", got)
	}
}

func TestLandmark(t *testing.T) {
	w := NewLandmark(10)
	for _, e := range []*element.Element{el(5, "a", 1), el(10, "a", 1), el(15, "a", 1)} {
		w.Observe(e)
	}
	if w.Pending() != 2 {
		t.Errorf("pending: %d (pre-landmark element should be dropped)", w.Pending())
	}
	panes := w.AdvanceTo(20)
	if len(panes) != 1 || len(panes[0].Elements) != 2 || panes[0].Window != temporal.NewInterval(10, 20) {
		t.Fatalf("landmark pane: %v", panes)
	}
	if got := w.AdvanceTo(5); len(got) != 0 {
		t.Error("watermark before landmark start emits nothing")
	}
}

func TestSession(t *testing.T) {
	key := func(e *element.Element) string { return e.MustGet("user").MustString() }
	w := NewSession(10, key)
	els := []*element.Element{
		el(0, "ann", 1), el(5, "ann", 1), el(7, "bob", 1),
		el(30, "ann", 1), // gap > 10 closes ann's first session
	}
	var panes []Pane
	for _, e := range els {
		panes = append(panes, w.Observe(e)...)
	}
	if len(panes) != 1 || panes[0].Key != "ann" || len(panes[0].Elements) != 2 {
		t.Fatalf("eager close: %v", panes)
	}
	if panes[0].Window != temporal.NewInterval(0, 15) {
		t.Errorf("session bounds: %v", panes[0].Window)
	}
	panes = w.AdvanceTo(45)
	// bob's session (7+10=17 <= 45) and ann's second (30+10=40 <= 45) close.
	if len(panes) != 2 {
		t.Fatalf("watermark close: %v", panes)
	}
	if panes[0].Key != "ann" || panes[1].Key != "bob" {
		t.Errorf("key order: %v", panes)
	}
	if w.Pending() != 0 {
		t.Errorf("pending: %d", w.Pending())
	}
}

func TestSessionNotYetExpired(t *testing.T) {
	w := NewSession(10, func(e *element.Element) string { return "k" })
	w.Observe(el(0, "a", 1))
	if got := w.AdvanceTo(9); len(got) != 0 {
		t.Error("session should stay open until gap expires")
	}
	if got := w.AdvanceTo(10); len(got) != 1 {
		t.Error("session should close at last+gap")
	}
}

func TestPredicate(t *testing.T) {
	key := func(e *element.Element) string { return e.MustGet("user").MustString() }
	opens := func(e *element.Element) bool { return e.MustGet("v").MustFloat() == 1 }  // login
	closes := func(e *element.Element) bool { return e.MustGet("v").MustFloat() == 9 } // logout
	w := NewPredicate(key, opens, closes)
	var panes []Pane
	els := []*element.Element{
		el(0, "ann", 5), // ignored: no open window, not an opener
		el(1, "ann", 1), // opens
		el(2, "ann", 3),
		el(3, "bob", 1), // opens bob
		el(4, "ann", 9), // closes ann
	}
	for _, e := range els {
		panes = append(panes, w.Observe(e)...)
	}
	if len(panes) != 1 || panes[0].Key != "ann" || len(panes[0].Elements) != 3 {
		t.Fatalf("predicate panes: %v", panes)
	}
	if w.Pending() != 1 {
		t.Errorf("open state: pending=%d", w.Pending())
	}
	if got := w.AdvanceTo(100); len(got) != 0 {
		t.Error("predicate windows ignore watermarks")
	}
}

func TestPredicateOpenAndCloseSameElement(t *testing.T) {
	w := NewPredicate(
		func(e *element.Element) string { return "k" },
		func(e *element.Element) bool { return true },
		func(e *element.Element) bool { return true },
	)
	panes := w.Observe(el(1, "a", 1))
	if len(panes) != 1 || len(panes[0].Elements) != 1 {
		t.Fatalf("single-element episode: %v", panes)
	}
	if w.Pending() != 0 {
		t.Error("pending should drop to 0")
	}
}

func TestDeltaFrame(t *testing.T) {
	w := NewDeltaFrame("v", 2)
	var panes []Pane
	for _, e := range []*element.Element{
		el(0, "a", 10), el(1, "a", 11), el(2, "a", 9), el(3, "a", 20), el(4, "a", 21),
	} {
		panes = append(panes, w.Observe(e)...)
	}
	if len(panes) != 1 || len(panes[0].Elements) != 3 {
		t.Fatalf("delta frames: %v", panes)
	}
	final := w.Flush(10)
	if len(final) != 1 || len(final[0].Elements) != 2 {
		t.Errorf("flush: %v", final)
	}
}

func TestFeedHelperAcrossTypes(t *testing.T) {
	// Smoke check: each windower handles the same batch without panics and
	// pane element order is non-decreasing in time.
	els := []*element.Element{el(0, "a", 12), el(3, "b", 5), el(7, "a", 14), el(12, "b", 20)}
	ws := []Windower{
		NewTumblingTime(5),
		NewSlidingTime(10, 5),
		NewTumblingCount(2),
		NewSlidingCount(2, 1),
		NewLandmark(0),
		NewSession(4, func(e *element.Element) string { return e.MustGet("user").MustString() }),
		NewPredicate(func(e *element.Element) string { return "k" },
			func(e *element.Element) bool { return true },
			func(e *element.Element) bool { return e.MustGet("v").MustFloat() > 15 }),
		NewDeltaFrame("v", 3),
	}
	for i, w := range ws {
		for _, p := range feed(w, els, 100) {
			for j := 1; j < len(p.Elements); j++ {
				if p.Elements[j].Timestamp < p.Elements[j-1].Timestamp {
					t.Errorf("windower %d: pane %v out of order", i, p)
				}
			}
			if p.Window.IsEmpty() {
				t.Errorf("windower %d: empty pane interval %v", i, p.Window)
			}
		}
	}
}

func TestPaneString(t *testing.T) {
	p := Pane{Window: temporal.NewInterval(0, 10), Key: "k"}
	if p.String() == "" {
		t.Error("pane string")
	}
}
