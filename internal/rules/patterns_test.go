package rules

import (
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

func mkEv(stream string, ts int64, who string) *element.Element {
	e := element.New(stream, temporal.Instant(ts),
		element.NewTuple(entrySchema, element.String(who), element.String("r")))
	e.Seq = uint64(ts)
	return e
}

func TestAllPatternTrigger(t *testing.T) {
	// Both a smoke alarm AND a door sensor within a bound, any order.
	set, err := ParseSet(`
RULE confirm ON ALL(Smoke AS s, Door AS d) WITHIN 100ns
WHERE s.visitor = d.visitor
THEN REPLACE confirmed(s.visitor) = true`)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	for _, el := range []*element.Element{
		mkEv("Door", 10, "zone1"),
		mkEv("Smoke", 20, "zone1"), // Door then Smoke: ALL matches either order
	} {
		if _, err := set.Apply(el, store); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := store.Find("zone1", "confirmed"); !ok {
		t.Fatal("ALL pattern should fire regardless of order")
	}

	// Reverse order too.
	store2 := state.NewStore()
	set2, _ := ParseSet(`
RULE confirm ON ALL(Smoke AS s, Door AS d) WITHIN 100ns
WHERE s.visitor = d.visitor
THEN REPLACE confirmed(s.visitor) = true`)
	for _, el := range []*element.Element{
		mkEv("Smoke", 10, "zone2"), mkEv("Door", 20, "zone2"),
	} {
		if _, err := set2.Apply(el, store2); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := store2.Find("zone2", "confirmed"); !ok {
		t.Fatal("ALL pattern should fire in reverse order")
	}
}

func TestAnyPatternTrigger(t *testing.T) {
	set, err := ParseSet(`
RULE panic ON ANY(Fire AS f, Flood AS f)
THEN REPLACE alarm(f.visitor) = true`)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	if _, err := set.Apply(mkEv("Flood", 10, "b1"), store); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Find("b1", "alarm"); !ok {
		t.Fatal("ANY should fire on either stream")
	}
	if _, err := set.Apply(mkEv("Fire", 20, "b2"), store); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Find("b2", "alarm"); !ok {
		t.Fatal("ANY should fire on the other stream too")
	}
}

func TestNotOutsideSeqRejected(t *testing.T) {
	if _, err := parseOne("RULE x ON ALL(A, NOT B) THEN RETRACT p(1)"); err == nil {
		t.Error("NOT in ALL should be rejected")
	}
	if _, err := parseOne("RULE x ON ANY(NOT A) THEN RETRACT p(1)"); err == nil {
		t.Error("NOT in ANY should be rejected")
	}
}

func TestAllAnyRoundTrip(t *testing.T) {
	srcs := []string{
		"RULE r ON ALL(A AS a, B AS b) WITHIN 5m WHERE a.k = b.k THEN RETRACT p(a.k)",
		"RULE r ON ANY(A AS x, B AS x) THEN REPLACE p(x.k) = 1",
	}
	for _, src := range srcs {
		r1, err := parseOne(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := r1.String()
		r2, err := parseOne(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if r2.String() != printed {
			t.Errorf("unstable: %q vs %q", printed, r2.String())
		}
	}
}

// TestCounterStateRule shows state used as an accumulator: the value
// expression reads the current state being replaced, so rules can
// maintain running counters — no windows involved.
func TestCounterStateRule(t *testing.T) {
	set, err := ParseSet(`
RULE count ON Click AS c
THEN REPLACE clicks(c.visitor) = coalesce(clicks(c.visitor), 0) + 1`)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	for i := int64(1); i <= 5; i++ {
		if _, err := set.Apply(mkEv("Click", i*10, "ann"), store); err != nil {
			t.Fatal(err)
		}
	}
	f, ok := store.Find("ann", "clicks")
	if !ok || f.Value.MustInt() != 5 {
		t.Fatalf("counter: %v %v", f, ok)
	}
	// The counter's whole history is queryable: one version per click.
	if got := len(store.History("ann", "clicks")); got != 5 {
		t.Fatalf("counter history: %d versions", got)
	}
}
