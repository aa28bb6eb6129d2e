package cep

import (
	"errors"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

var sch = element.NewSchema(
	element.Field{Name: "user", Kind: element.KindString},
	element.Field{Name: "v", Kind: element.KindInt},
)

func ev(stream string, ts int64, user string, v int64) *element.Element {
	e := element.New(stream, temporal.Instant(ts),
		element.NewTuple(sch, element.String(user), element.Int(v)))
	e.Seq = uint64(ts)
	return e
}

// Event matches any element of the stream, bound under its name.
func Event(stream string) *Atom { return EventAs(stream, stream) }

// EventWhere matches elements of the stream satisfying pred.
func EventWhere(stream, alias string, pred Predicate) *Atom {
	return &Atom{Stream: stream, Alias: alias, Pred: pred}
}

// Sequence builds a Seq of positive items.
func Sequence(ps ...Pattern) *Seq {
	items := make([]SeqItem, len(ps))
	for i, p := range ps {
		items[i] = SeqItem{Pattern: p}
	}
	return &Seq{Items: items}
}

func feed(t *testing.T, p Pattern, els ...*element.Element) []Match {
	t.Helper()
	m, err := NewMatcher(p)
	if err != nil {
		t.Fatalf("compile %s: %v", p, err)
	}
	var out []Match
	for _, e := range els {
		out = append(out, m.Observe(e)...)
	}
	return out
}

func TestAtomMatch(t *testing.T) {
	got := feed(t, Event("A"), ev("A", 1, "u", 1), ev("B", 2, "u", 1), ev("A", 3, "u", 2))
	if len(got) != 2 {
		t.Fatalf("matches: %d", len(got))
	}
	if got[0].Interval != temporal.NewInterval(1, 2) {
		t.Errorf("interval: %v", got[0].Interval)
	}
	if e, ok := got[0].Bindings["A"]; !ok || e.Timestamp != 1 {
		t.Errorf("binding: %v %v", e, ok)
	}
}

func TestAtomPredicate(t *testing.T) {
	p := EventWhere("A", "big", func(e *element.Element) bool { return e.MustGet("v").MustInt() > 5 })
	got := feed(t, p, ev("A", 1, "u", 3), ev("A", 2, "u", 7))
	if len(got) != 1 || got[0].Events[0].Timestamp != 2 {
		t.Fatalf("predicate: %v", got)
	}
}

func TestSequence(t *testing.T) {
	p := Sequence(EventAs("A", "a"), EventAs("B", "b"))
	got := feed(t, p,
		ev("A", 1, "u", 1), ev("C", 2, "u", 1), ev("B", 3, "u", 1), ev("B", 4, "u", 1))
	// A@1 pairs with B@3 and (skip-till-any-match) with B@4.
	if len(got) != 2 {
		t.Fatalf("matches: %d", len(got))
	}
	if got[0].Interval != temporal.NewInterval(1, 4) {
		t.Errorf("interval: %v", got[0].Interval)
	}
	a := got[1].Bindings["a"]
	b := got[1].Bindings["b"]
	if a.Timestamp != 1 || b.Timestamp != 4 {
		t.Errorf("bindings: a@%d b@%d", a.Timestamp, b.Timestamp)
	}
}

func TestSequenceOrderMatters(t *testing.T) {
	p := Sequence(Event("A"), Event("B"))
	if got := feed(t, p, ev("B", 1, "u", 1), ev("A", 2, "u", 1)); len(got) != 0 {
		t.Fatalf("B before A should not match: %v", got)
	}
}

func TestWithinConstraint(t *testing.T) {
	p := &Within{P: Sequence(Event("A"), Event("B")), D: 10}
	got := feed(t, p, ev("A", 0, "u", 1), ev("B", 9, "u", 1), ev("A", 20, "u", 1), ev("B", 31, "u", 1))
	if len(got) != 1 || got[0].Events[0].Timestamp != 0 {
		t.Fatalf("within: %v", got)
	}
}

func TestWithinPrunesRuns(t *testing.T) {
	p := &Within{P: Sequence(Event("A"), Event("B")), D: 10}
	m, err := NewMatcher(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(ev("A", 0, "u", 1))
	if len(m.runs) != 1 {
		t.Fatalf("runs: %d", len(m.runs))
	}
	m.AdvanceTo(10)
	if len(m.runs) != 0 {
		t.Fatalf("runs after watermark: %d", len(m.runs))
	}
}

func TestNegationGuard(t *testing.T) {
	// A then (no C) then B: "visitor entered and reached the vault without
	// badging out".
	p := &Seq{Items: []SeqItem{
		{Pattern: EventAs("A", "a")},
		{Pattern: Event("C"), Negated: true},
		{Pattern: EventAs("B", "b")},
	}}
	// Without C in between: match.
	if got := feed(t, p, ev("A", 1, "u", 1), ev("B", 2, "u", 1)); len(got) != 1 {
		t.Fatalf("no guard event: %v", got)
	}
	// With C in between: the guard kills the run.
	if got := feed(t, p, ev("A", 1, "u", 1), ev("C", 2, "u", 1), ev("B", 3, "u", 1)); len(got) != 0 {
		t.Fatalf("guard should kill: %v", got)
	}
	// C after B is irrelevant.
	if got := feed(t, p, ev("A", 1, "u", 1), ev("B", 2, "u", 1), ev("C", 3, "u", 1)); len(got) != 1 {
		t.Fatalf("late guard event: %v", got)
	}
}

func TestConjunctionAnyOrder(t *testing.T) {
	p := &All{Patterns: []Pattern{Event("A"), Event("B")}}
	for _, order := range [][]*element.Element{
		{ev("A", 1, "u", 1), ev("B", 2, "u", 1)},
		{ev("B", 1, "u", 1), ev("A", 2, "u", 1)},
	} {
		if got := feed(t, p, order...); len(got) != 1 {
			t.Fatalf("ALL order %v: %d matches", order[0].Stream, len(got))
		}
	}
	m, _ := NewMatcher(p)
	if len(m.progs) != 2 {
		t.Errorf("alternatives: %d", len(m.progs))
	}
}

func TestDisjunction(t *testing.T) {
	p := &Any{Patterns: []Pattern{Event("A"), Event("B")}}
	got := feed(t, p, ev("A", 1, "u", 1), ev("B", 2, "u", 1), ev("C", 3, "u", 1))
	if len(got) != 2 {
		t.Fatalf("ANY: %d matches", len(got))
	}
}

func TestIteration(t *testing.T) {
	p := Sequence(&Iter{A: EventAs("A", "a"), Min: 2, Max: 3}, EventAs("B", "b"))
	got := feed(t, p, ev("A", 1, "u", 1), ev("A", 2, "u", 1), ev("A", 3, "u", 1), ev("B", 4, "u", 1))
	// Valid event subsets ending at B@4: {1,2},{1,3},{2,3},{1,2,3} → 4 matches.
	if len(got) != 4 {
		t.Fatalf("iteration matches: %d", len(got))
	}
	for _, mt := range got {
		n := len(mt.Events) - 1
		if n < 2 || n > 3 {
			t.Errorf("iteration size %d out of bounds", n)
		}
		if _, ok := mt.Bindings["a[0]"]; !ok {
			t.Error("indexed binding missing")
		}
		if _, ok := mt.Bindings["b"]; !ok {
			t.Error("closing binding missing")
		}
	}
}

func TestIterationSingle(t *testing.T) {
	p := &Iter{A: Event("A"), Min: 1, Max: 2}
	got := feed(t, p, ev("A", 1, "u", 1), ev("A", 2, "u", 1))
	// Matches: {1}, {2}, {1,2}.
	if len(got) != 3 {
		t.Fatalf("iteration: %d matches", len(got))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		p    Pattern
		want error
	}{
		{&Seq{Items: []SeqItem{{Pattern: Event("A")}, {Pattern: Event("B"), Negated: true}}}, ErrTrailingNegation},
		{&Seq{Items: []SeqItem{{Pattern: Sequence(Event("A")), Negated: true}, {Pattern: Event("B")}}}, ErrNegatedNonAtom},
		{Sequence(&Within{P: Event("A"), D: 5}, Event("B")), ErrInnerWithin},
	}
	for _, c := range cases {
		if _, err := NewMatcher(c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v want %v", c.p, err, c.want)
		}
	}
	if _, err := NewMatcher(&Iter{A: Event("A"), Min: 0, Max: 2}); err == nil {
		t.Error("bad iteration bounds should fail")
	}
	if _, err := NewMatcher(&Within{P: Event("A"), D: 0}); err == nil {
		t.Error("non-positive within should fail")
	}
}

func TestMaxRunsBound(t *testing.T) {
	m, err := NewMatcher(Sequence(Event("A"), Event("B")))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxRuns = 10
	for i := int64(0); i < 100; i++ {
		m.Observe(ev("A", i, "u", 1))
	}
	if len(m.runs) > 10 {
		t.Fatalf("runs: %d", len(m.runs))
	}
}

func TestPatternStrings(t *testing.T) {
	ps := []Pattern{
		Event("A"),
		EventAs("A", "x"),
		Sequence(Event("A"), Event("B")),
		&Seq{Items: []SeqItem{{Pattern: Event("A")}, {Pattern: Event("C"), Negated: true}, {Pattern: Event("B")}}},
		&All{Patterns: []Pattern{Event("A"), Event("B")}},
		&Any{Patterns: []Pattern{Event("A"), Event("B")}},
		&Within{P: Event("A"), D: 100},
		&Iter{A: Event("A"), Min: 1, Max: 3},
	}
	for _, p := range ps {
		if p.String() == "" {
			t.Errorf("empty string for %T", p)
		}
	}
}

func TestSequenceWithDisjunctionInside(t *testing.T) {
	p := Sequence(Event("A"), &Any{Patterns: []Pattern{Event("B"), Event("C")}})
	if got := feed(t, p, ev("A", 1, "u", 1), ev("C", 2, "u", 1)); len(got) != 1 {
		t.Fatalf("A then (B|C): %v", got)
	}
	if got := feed(t, p, ev("A", 1, "u", 1), ev("B", 2, "u", 1)); len(got) != 1 {
		t.Fatalf("A then (B|C): %v", got)
	}
}

func TestMatchEventOrder(t *testing.T) {
	p := &All{Patterns: []Pattern{Event("A"), Event("B"), Event("C")}}
	got := feed(t, p, ev("B", 1, "u", 1), ev("C", 2, "u", 1), ev("A", 3, "u", 1))
	if len(got) != 1 {
		t.Fatalf("ALL(3): %d", len(got))
	}
	evs := got[0].Events
	for i := 1; i < len(evs); i++ {
		if evs[i].Timestamp < evs[i-1].Timestamp {
			t.Error("events out of order")
		}
	}
	if got[0].Interval != temporal.NewInterval(1, 4) {
		t.Errorf("interval: %v", got[0].Interval)
	}
}
