package reason

import (
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

func TestOntologyClosure(t *testing.T) {
	o := NewOntology()
	mustOK(t, o.SubClassOf("novel", "fiction"))
	mustOK(t, o.SubClassOf("fiction", "books"))
	mustOK(t, o.SubClassOf("cookbook", "books"))
	got := o.Superclasses("novel")
	if len(got) != 2 || got[0] != "books" || got[1] != "fiction" {
		t.Fatalf("superclasses: %v", got)
	}
	if len(o.Superclasses("unknown")) != 0 {
		t.Error("unknown class has no superclasses")
	}
}

func TestOntologyCycleRejected(t *testing.T) {
	o := NewOntology()
	mustOK(t, o.SubClassOf("a", "b"))
	mustOK(t, o.SubClassOf("b", "c"))
	if err := o.SubClassOf("c", "a"); err == nil {
		t.Error("cycle should be rejected")
	}
	if err := o.SubClassOf("a", "a"); err == nil {
		t.Error("self-subsumption should be rejected")
	}
}

func TestTypePropagation(t *testing.T) {
	st := state.NewStore()
	o := NewOntology()
	mustOK(t, o.SubClassOf("novel", "fiction"))
	mustOK(t, o.SubClassOf("fiction", "books"))
	r := NewReasoner(st, o)

	st.Replace("p1", TypeAttribute, element.String("novel"), 10)

	vals := r.HoldsAt("p1", TypeAttribute, 15)
	if len(vals) != 3 { // novel (asserted) + fiction + books (derived)
		t.Fatalf("types at 15: %v", vals)
	}
	if got := r.HoldsAt("p1", TypeAttribute, 5); len(got) != 0 {
		t.Fatalf("types before assertion: %v", got)
	}
	if !hasType(r, "p1", "books", 15) {
		t.Fatal("p1 should be derived a book at 15")
	}
}

func TestDerivedValidityFollowsReclassification(t *testing.T) {
	// The §3.1 scenario: reclassifying a product bounds old derivations.
	st := state.NewStore()
	o := NewOntology()
	mustOK(t, o.SubClassOf("novel", "books"))
	mustOK(t, o.SubClassOf("boardgame", "toys"))
	r := NewReasoner(st, o)

	st.Replace("p1", TypeAttribute, element.String("novel"), 0)
	st.Replace("p1", TypeAttribute, element.String("boardgame"), 100) // reclassified

	if !hasType(r, "p1", "books", 50) {
		t.Fatal("p1 should be a book at 50")
	}
	if hasType(r, "p1", "books", 150) {
		t.Fatal("p1 is still a book at 150 (stale!)")
	}
	if !hasType(r, "p1", "toys", 150) {
		t.Fatal("p1 should be a toy at 150")
	}
}

func TestHornRuleJoin(t *testing.T) {
	// locatedIn(x)=r AND partOf(r)=b ⇒ inBuilding(x)=b
	st := state.NewStore()
	r := NewReasoner(st, nil)
	mustOK(t, r.AddRule(HornRule{
		Name: "in-building",
		Body: []TriplePattern{
			{Attr: "locatedIn", Entity: V("x"), Value: V("r")},
			{Attr: "partOf", Entity: V("r"), Value: V("b")},
		},
		Head: TriplePattern{Attr: "inBuilding", Entity: V("x"), Value: V("b")},
	}))

	st.Replace("room1", "partOf", element.String("hq"), 0)
	st.Replace("ann", "locatedIn", element.String("room1"), 10)
	st.Replace("ann", "locatedIn", element.String("offsite"), 50)

	if vals := r.HoldsAt("ann", "inBuilding", 20); len(vals) != 1 || vals[0].MustString() != "hq" {
		t.Fatalf("join derivation: %v", vals)
	}
	// Temporal semantics: conclusion validity = intersection of premises.
	if vals := r.HoldsAt("ann", "inBuilding", 60); len(vals) != 0 {
		t.Fatalf("derivation should end when premise ends: %v", vals)
	}
	if vals := r.HoldsAt("ann", "inBuilding", 5); len(vals) != 0 {
		t.Fatalf("derivation before premise: %v", vals)
	}
}

func TestHornRuleTransitiveFixpoint(t *testing.T) {
	// partOf is transitive via a recursive rule.
	st := state.NewStore()
	r := NewReasoner(st, nil)
	mustOK(t, r.AddRule(HornRule{
		Name: "partof-trans",
		Body: []TriplePattern{
			{Attr: "partOf", Entity: V("a"), Value: V("b")},
			{Attr: "partOf", Entity: V("b"), Value: V("c")},
		},
		Head: TriplePattern{Attr: "partOf", Entity: V("a"), Value: V("c")},
	}))
	st.Replace("desk", "partOf", element.String("room"), 0)
	st.Replace("room", "partOf", element.String("floor"), 0)
	st.Replace("floor", "partOf", element.String("building"), 0)

	vals := r.HoldsAt("desk", "partOf", 10)
	// asserted: room; derived: floor, building.
	if len(vals) != 3 {
		t.Fatalf("transitive closure: %v", vals)
	}
}

func TestRuleHeadUnboundRejected(t *testing.T) {
	r := NewReasoner(state.NewStore(), nil)
	err := r.AddRule(HornRule{
		Name: "bad",
		Body: []TriplePattern{{Attr: "a", Entity: V("x"), Value: V("y")}},
		Head: TriplePattern{Attr: "b", Entity: V("z"), Value: V("y")},
	})
	if err == nil {
		t.Error("unbound head variable should be rejected")
	}
}

func TestRuleWithConstants(t *testing.T) {
	st := state.NewStore()
	r := NewReasoner(st, nil)
	mustOK(t, r.AddRule(HornRule{
		Name: "vip",
		Body: []TriplePattern{
			{Attr: "tier", Entity: V("u"), Value: C(element.String("gold"))},
		},
		Head: TriplePattern{Attr: "vip", Entity: V("u"), Value: C(element.Bool(true))},
	}))
	st.Replace("ann", "tier", element.String("gold"), 0)
	st.Replace("bob", "tier", element.String("silver"), 0)
	if vals := r.HoldsAt("ann", "vip", 10); len(vals) != 1 || !vals[0].Truthy() {
		t.Fatalf("vip ann: %v", vals)
	}
	if vals := r.HoldsAt("bob", "vip", 10); len(vals) != 0 {
		t.Fatalf("vip bob: %v", vals)
	}
}

func TestIncrementalRematerialization(t *testing.T) {
	st := state.NewStore()
	o := NewOntology()
	mustOK(t, o.SubClassOf("a", "b"))
	r := NewReasoner(st, o)

	st.Replace("x", TypeAttribute, element.String("a"), 0)
	n1 := r.Materialize()
	if n1 != 1 {
		t.Fatalf("derived: %d", n1)
	}
	// No change → cached.
	if r.Materialize() != 1 {
		t.Error("cached materialization")
	}
	// New base fact re-triggers.
	st.Replace("y", TypeAttribute, element.String("a"), 5)
	if got := r.Materialize(); got != 2 {
		t.Fatalf("after change: %d", got)
	}
	// Retraction also re-triggers and removes coverage going forward.
	st.Delete("y", TypeAttribute, state.WithValidTime(10), state.WithTransactionTime(10))
	r.Materialize()
	if vals := r.HoldsAt("y", TypeAttribute, 20); len(vals) != 0 {
		t.Fatalf("after retract: %v", vals)
	}
	if vals := r.HoldsAt("y", TypeAttribute, 7); len(vals) != 2 {
		t.Fatalf("history preserved: %v", vals)
	}
}

func TestDerivedAt(t *testing.T) {
	st := state.NewStore()
	o := NewOntology()
	mustOK(t, o.SubClassOf("novel", "books"))
	r := NewReasoner(st, o)
	st.Replace("p", TypeAttribute, element.String("novel"), 0)
	facts := r.DerivedAt(5)
	if len(facts) != 1 || !facts[0].Derived || facts[0].Source != "reasoner" {
		t.Fatalf("derived facts: %v", facts)
	}
	if facts[0].Value.MustString() != "books" {
		t.Fatalf("derived value: %v", facts[0])
	}
	if n := r.Materialize(); n != 1 {
		t.Errorf("count: %d", n)
	}
}

func TestRuleStrings(t *testing.T) {
	rule := HornRule{
		Name: "r",
		Body: []TriplePattern{{Attr: "a", Entity: V("x"), Value: C(element.Int(1))}},
		Head: TriplePattern{Attr: "b", Entity: V("x"), Value: V("x")},
	}
	if rule.String() == "" || rule.Body[0].String() == "" {
		t.Error("strings")
	}
}

func TestDeepTaxonomyFixpoint(t *testing.T) {
	st := state.NewStore()
	o := NewOntology()
	// Chain c0 ⊑ c1 ⊑ ... ⊑ c9.
	for i := 0; i < 9; i++ {
		mustOK(t, o.SubClassOf(cls(i), cls(i+1)))
	}
	r := NewReasoner(st, o)
	st.Replace("e", TypeAttribute, element.String(cls(0)), 0)
	if vals := r.HoldsAt("e", TypeAttribute, 5); len(vals) != 10 {
		t.Fatalf("deep taxonomy: %d types", len(vals))
	}
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name, IsVar: true} }

// C returns a constant term.
func C(v element.Value) Term { return Term{Const: v} }

// hasType reports whether type(e) = class holds, asserted or derived, at t.
func hasType(r *Reasoner, e, class string, t temporal.Instant) bool {
	for _, v := range r.HoldsAt(e, TypeAttribute, t) {
		if v.MustString() == class {
			return true
		}
	}
	return false
}

func cls(i int) string { return string(rune('a'+i)) + "class" }

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestHoldsAtDedupesAssertedAndDerived(t *testing.T) {
	// If a fact is both asserted and derivable, HoldsAt reports it once.
	st := state.NewStore()
	o := NewOntology()
	mustOK(t, o.SubClassOf("a", "b"))
	r := NewReasoner(st, o)
	st.Replace("x", TypeAttribute, element.String("b"), 0) // asserted b
	// Also derive b for x through a rule over a second attribute lineage.
	mustOK(t, r.AddRule(HornRule{
		Name: "p-typed",
		Body: []TriplePattern{{Attr: "p", Entity: V("x"), Value: V("v")}},
		Head: TriplePattern{Attr: TypeAttribute, Entity: V("x"), Value: C(element.String("b"))},
	}))
	st.Replace("x", "p", element.Int(1), 0)
	vals := r.HoldsAt("x", TypeAttribute, 5)
	if len(vals) != 1 || vals[0].MustString() != "b" {
		t.Fatalf("dedupe: %v", vals)
	}
}
