package rules

import (
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/state"
	"repro/internal/temporal"
)

func routedEl(stream, k string, ts temporal.Instant) *element.Element {
	schema := element.NewSchema(
		element.Field{Name: "k", Kind: element.KindString},
		element.Field{Name: "v", Kind: element.KindInt},
	)
	return element.New(stream, ts, element.NewTuple(schema, element.String(k), element.Int(int64(ts))))
}

const routedSrc = `
RULE ra ON A AS a
THEN REPLACE pa(a.k) = a.v

RULE emitA ON A AS a WHERE a.v > 2
THEN EMIT OutA(k = a.k)

RULE rb ON B AS b WHEN EXISTS pa(b.k)
THEN REPLACE pb(b.k) = b.v

RULE pat ON SEQ(A AS x, B AS y) WITHIN 100ns WHERE x.k = y.k
THEN EMIT Pair(k = x.k)
`

// TestRoutingEquivalence: the stream-routing index fires exactly the
// rules the historical full scan fired, in deployment order.
func TestRoutingEquivalence(t *testing.T) {
	set, err := ParseSet(routedSrc)
	if err != nil {
		t.Fatal(err)
	}
	st := state.NewStore()
	var emits []*element.Element
	feed := []*element.Element{
		routedEl("A", "x", 1),
		routedEl("B", "x", 2), // rb fires (pa exists), pattern completes
		routedEl("C", "x", 3), // no routed rules
		routedEl("A", "y", 4), // emitA fires (v=4>2)
		routedEl("B", "z", 5), // rb gated (no pa(z))
	}
	for _, el := range feed {
		out, err := set.Apply(el, st)
		if err != nil {
			t.Fatal(err)
		}
		emits = append(emits, out...)
	}
	if len(emits) != 2 {
		t.Fatalf("emits: %v", emits)
	}
	if emits[0].Stream != "Pair" || emits[0].Seq != 0 {
		t.Fatalf("first emit: %v", emits[0])
	}
	if emits[1].Stream != "OutA" || emits[1].Seq != 1 {
		t.Fatalf("second emit: %v", emits[1])
	}
	if _, ok := st.Find("x", "pb"); !ok {
		t.Fatal("rb should have fired for x")
	}
	if _, ok := st.Find("z", "pb"); ok {
		t.Fatal("rb should have been gated for z")
	}
	if set.emitted != 2 {
		t.Fatalf("emitted counter: %d", set.emitted)
	}
}

// TestWildcardPatternDisablesRouting: a pattern atom with an empty stream
// must observe every element, so routing degrades to the full scan.
func TestWildcardPatternDisablesRouting(t *testing.T) {
	set, err := NewSet(
		&Rule{
			Name:    "wild",
			Trigger: &PatternTrigger{Kind: PatternSeq, Items: []PatternItem{{Stream: "", Alias: "x"}, {Stream: "B", Alias: "y"}}},
			Actions: []Action{&EmitAction{Stream: "Out", Fields: []EmitField{{Name: "n", Expr: mustParseExpr(t, "1")}}}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The wildcard atom sees a C element even though no rule names C.
	st := state.NewStore()
	if _, err := set.Apply(routedEl("C", "x", 1), st); err != nil {
		t.Fatal(err)
	}
	out, err := set.Apply(routedEl("B", "x", 2), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Stream != "Out" {
		t.Fatalf("wildcard pattern should complete: %v", out)
	}
}

func mustParseExpr(t *testing.T, src string) lang.Expr {
	t.Helper()
	e, err := lang.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// BenchmarkApplyRouted measures the per-element rule pass with many
// deployed rules: routing keeps cost independent of the rule count for
// non-matching streams.
func BenchmarkApplyRouted(b *testing.B) {
	var src string
	for i := 0; i < 100; i++ {
		src += fmt.Sprintf("RULE r%03d ON S%03d AS x THEN REPLACE p%03d(x.k) = x.v\n", i, i, i)
	}
	set, err := ParseSet(src)
	if err != nil {
		b.Fatal(err)
	}
	st := state.NewStore()
	els := make([]*element.Element, 512)
	for i := range els {
		els[i] = routedEl("S050", fmt.Sprintf("k%03d", i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el := els[i%len(els)]
		el.Timestamp = temporal.Instant(i + 1)
		if _, err := set.Apply(el, st); err != nil {
			b.Fatal(err)
		}
	}
}
