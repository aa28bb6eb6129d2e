package rules

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

var entrySchema = element.NewSchema(
	element.Field{Name: "visitor", Kind: element.KindString},
	element.Field{Name: "room", Kind: element.KindString},
)

// parseOne parses a source holding exactly one rule.
func parseOne(src string) (*Rule, error) {
	rs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("rules: want one rule, got %d", len(rs))
	}
	return rs[0], nil
}

func entry(ts int64, visitor, room string) *element.Element {
	e := element.New("RoomEntry", temporal.Instant(ts),
		element.NewTuple(entrySchema, element.String(visitor), element.String(room)))
	e.Seq = uint64(ts)
	return e
}

func TestParseSimpleRule(t *testing.T) {
	r, err := parseOne(`
RULE visitor_position
ON RoomEntry AS e
THEN REPLACE position(e.visitor) = e.room`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "visitor_position" {
		t.Errorf("name: %q", r.Name)
	}
	st, ok := r.Trigger.(*StreamTrigger)
	if !ok || st.Stream != "RoomEntry" || st.Alias != "e" {
		t.Fatalf("trigger: %+v", r.Trigger)
	}
	if len(r.Actions) != 1 {
		t.Fatalf("actions: %v", r.Actions)
	}
	if _, ok := r.Actions[0].(*ReplaceAction); !ok {
		t.Fatalf("action type: %T", r.Actions[0])
	}
}

func TestParseFullRule(t *testing.T) {
	r, err := parseOne(`
RULE checkout
ON Purchase AS p WHERE p.amount > 100 WHEN EXISTS active(p.user)
THEN ASSERT bigspender(p.user) = true FROM now() UNTIL now() + 1h,
     EMIT Alert(user = p.user, amount = p.amount),
     RETRACT cart(p.user)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Where == nil || r.When == nil {
		t.Error("where/when should be set")
	}
	if len(r.Actions) != 3 {
		t.Fatalf("actions: %d", len(r.Actions))
	}
	a := r.Actions[0].(*AssertAction)
	if a.From == nil || a.Until == nil {
		t.Error("assert from/until")
	}
	e := r.Actions[1].(*EmitAction)
	if e.Stream != "Alert" || len(e.Fields) != 2 {
		t.Fatalf("emit: %+v", e)
	}
}

func TestParsePatternRule(t *testing.T) {
	r, err := parseOne(`
RULE walkthrough
ON SEQ(Badge AS b, NOT Exit, Vault AS v) WITHIN 5m
WHERE v.visitor = b.visitor
THEN EMIT Alarm(visitor = b.visitor)`)
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := r.Trigger.(*PatternTrigger)
	if !ok || len(pt.Items) != 3 || !pt.Items[1].Negated {
		t.Fatalf("pattern trigger: %+v", pt)
	}
	if pt.Within != temporal.Instant(5*60*1e9) {
		t.Errorf("within: %d", pt.Within)
	}
}

func TestParseAllMultipleRules(t *testing.T) {
	rs, err := ParseAll(`
RULE a ON S AS x THEN REPLACE p(x.k) = 1
RULE b ON S AS x THEN RETRACT p(x.k)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name != "a" || rs[1].Name != "b" {
		t.Fatalf("rules: %v", rs)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"RULE x ON S AS e",                        // no THEN
		"RULE x ON S AS e THEN",                   // no action
		"RULE x ON S AS e THEN FROB y(e.k) = 1",   // unknown action
		"RULE x ON SEQ() THEN RETRACT p(1)",       // empty pattern
		"RULE x ON S AS e THEN REPLACE p(e.k)",    // missing value
		"RULE x ON S AS e THEN EMIT Out()",        // empty emit
		"RULE x ON S AS e THEN RETRACT p(e.k) 42", // trailing tokens
	}
	for _, src := range bad {
		if _, err := parseOne(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
	if _, err := ParseSet("RULE x ON SEQ(A, NOT B) THEN RETRACT p(1)"); err == nil {
		t.Error("ParseSet should surface compile errors")
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	srcs := []string{
		"RULE r1 ON RoomEntry AS e THEN REPLACE position(e.visitor) = e.room",
		"RULE r2 ON S AS x WHERE x.v > 3 WHEN EXISTS a(x.k) THEN RETRACT a(x.k), EMIT Out(k = x.k)",
		"RULE r3 ON SEQ(A AS a, NOT B, C AS c) WITHIN 10m WHERE a.k = c.k THEN ASSERT p(a.k) = 1 FROM now() UNTIL now() + 5m",
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
			t.Errorf("round trip unstable:\n%s\n---\n%s", printed, r2.String())
		}
	}
}

func TestApplyReplaceRule(t *testing.T) {
	// The paper's security use case: position updates invalidate previous
	// positions.
	set, err := ParseSet("RULE pos ON RoomEntry AS e THEN REPLACE position(e.visitor) = e.room")
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	for _, el := range []*element.Element{
		entry(10, "ann", "hall"), entry(20, "ann", "lab"), entry(25, "bob", "hall"),
	} {
		if _, err := set.Apply(el, store); err != nil {
			t.Fatal(err)
		}
	}
	if f, _ := store.Find("ann", "position"); f.Value.MustString() != "lab" {
		t.Errorf("ann current: %v", f)
	}
	if f, _ := store.Find("ann", "position", state.AsOfValidTime(15)); f.Value.MustString() != "hall" {
		t.Errorf("ann history: %v", f)
	}
	// No instant has two positions for ann; bob arrives only at 25.
	if got := store.List(state.AsOfValidTime(22)); len(got) != 1 ||
		got[0].Entity != "ann" || got[0].Value.MustString() != "lab" {
		t.Errorf("as-of 22: %v", got)
	}
}

// TestApplyReplaceOutOfOrder: REPLACE is a stream append, so an element
// older than the key's latest version fails the rule with ErrOutOfOrder
// instead of rewriting history.
func TestApplyReplaceOutOfOrder(t *testing.T) {
	set, err := ParseSet("RULE pos ON RoomEntry AS e THEN REPLACE position(e.visitor) = e.room")
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	if _, err := set.Apply(entry(20, "ann", "lab"), store); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Apply(entry(10, "ann", "hall"), store); !errors.Is(err, state.ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
	if h := store.History("ann", "position"); len(h) != 1 || h[0].Value.MustString() != "lab" {
		t.Fatalf("rejected REPLACE changed state: %v", h)
	}
}

func TestApplyWhereFilter(t *testing.T) {
	set, err := ParseSet("RULE pos ON RoomEntry AS e WHERE e.room != 'hall' THEN REPLACE position(e.visitor) = e.room")
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	set.Apply(entry(10, "ann", "hall"), store)
	if _, ok := store.Find("ann", "position"); ok {
		t.Error("filtered element should not fire")
	}
	set.Apply(entry(20, "ann", "lab"), store)
	if f, ok := store.Find("ann", "position"); !ok || f.Value.MustString() != "lab" {
		t.Error("passing element should fire")
	}
}

func TestApplyWhenStateGate(t *testing.T) {
	src := `
RULE track ON RoomEntry AS e WHEN EXISTS watchlist(e.visitor)
THEN REPLACE position(e.visitor) = e.room`
	set, err := ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	set.Apply(entry(10, "ann", "lab"), store)
	if _, ok := store.Find("ann", "position"); ok {
		t.Error("unwatched visitor should be ignored")
	}
	store.Replace("ann", "watchlist", element.Bool(true), 15)
	set.Apply(entry(20, "ann", "vault"), store)
	if f, ok := store.Find("ann", "position"); !ok || f.Value.MustString() != "vault" {
		t.Error("watched visitor should be tracked")
	}
}

func TestApplyEmitAndSourceMetadata(t *testing.T) {
	src := `
RULE sess ON Click AS c
THEN ASSERT lastclick(c.visitor) = c.room,
     EMIT Activity(visitor = c.visitor, at = now())`
	set, err := ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	click := element.New("Click", 30, element.NewTuple(entrySchema, element.String("ann"), element.String("x")))
	out, err := set.Apply(click, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Stream != "Activity" || out[0].Timestamp != 30 {
		t.Fatalf("emitted: %v", out)
	}
	if at, _ := out[0].MustGet("at").AsTime(); at != 30 {
		t.Errorf("now() in emit: %v", out[0])
	}
	f, _ := store.Find("ann", "lastclick")
	if f.Source != "sess" {
		t.Errorf("fact source: %q", f.Source)
	}
	if set.emitted != 1 {
		t.Errorf("emitted count: %d", set.emitted)
	}
}

func TestApplyAssertWithUntil(t *testing.T) {
	set, err := ParseSet(`
RULE promo ON Purchase AS p
THEN ASSERT discount(p.visitor) = 0.1 UNTIL now() + 10ns`)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	p := element.New("Purchase", 100, element.NewTuple(entrySchema, element.String("ann"), element.String("x")))
	if _, err := set.Apply(p, store); err != nil {
		t.Fatal(err)
	}
	f, ok := store.Find("ann", "discount", state.AsOfValidTime(105))
	if !ok || f.Validity != temporal.NewInterval(100, 110) {
		t.Fatalf("bounded assert: %v %v", f, ok)
	}
	if _, ok := store.Find("ann", "discount", state.AsOfValidTime(110)); ok {
		t.Error("discount should expire")
	}
}

// TestApplyAssertOverlapFails: ASSERT states a fact with known validity,
// so an ASSERT overlapping a believed version of the same key fails the
// rule with ErrOverlap — the fraud example's WHEN guard relies on it —
// while an adjacent one succeeds.
func TestApplyAssertOverlapFails(t *testing.T) {
	set, err := ParseSet(`
RULE promo ON Purchase AS p
THEN ASSERT discount(p.visitor) = 0.1 UNTIL now() + 10ns`)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	purchase := func(at temporal.Instant) *element.Element {
		return element.New("Purchase", at, element.NewTuple(entrySchema, element.String("ann"), element.String("x")))
	}
	if _, err := set.Apply(purchase(100), store); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Apply(purchase(105), store); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlapping ASSERT: want ErrOverlap, got %v", err)
	}
	if _, err := set.Apply(purchase(110), store); err != nil {
		t.Fatalf("adjacent ASSERT: %v", err)
	}
	h := store.History("ann", "discount")
	if len(h) != 2 || h[0].Validity != temporal.NewInterval(100, 110) ||
		h[1].Validity != temporal.NewInterval(110, 120) || h[1].Source != "promo" {
		t.Fatalf("asserted history: %v", h)
	}
}

func TestApplyRetractAbsentIsNoop(t *testing.T) {
	set, err := ParseSet("RULE out ON Exit AS e THEN RETRACT position(e.visitor)")
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	exit := element.New("Exit", 10, element.NewTuple(entrySchema, element.String("ann"), element.String("x")))
	if _, err := set.Apply(exit, store); err != nil {
		t.Fatalf("retract of absent key should not error: %v", err)
	}
}

func TestApplyPatternRule(t *testing.T) {
	src := `
RULE alarm ON SEQ(Badge AS b, Vault AS v) WITHIN 100ns
WHERE v.visitor = b.visitor
THEN EMIT Alarm(visitor = b.visitor)`
	set, err := ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	mk := func(stream string, ts int64, who string) *element.Element {
		e := element.New(stream, temporal.Instant(ts),
			element.NewTuple(entrySchema, element.String(who), element.String("r")))
		e.Seq = uint64(ts)
		return e
	}
	var emitted []*element.Element
	for _, el := range []*element.Element{
		mk("Badge", 10, "ann"),
		mk("Vault", 20, "bob"),  // wrong visitor: correlated WHERE rejects
		mk("Vault", 30, "ann"),  // fires
		mk("Vault", 200, "ann"), // outside WITHIN
	} {
		out, err := set.Apply(el, store)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, out...)
	}
	if len(emitted) != 1 || emitted[0].MustGet("visitor").MustString() != "ann" {
		t.Fatalf("alarm: %v", emitted)
	}
	set.AdvanceTo(1000) // prunes matcher state; just exercise the path
}

func TestRuleErrorsAreNamed(t *testing.T) {
	set, err := ParseSet("RULE broken ON S AS e THEN REPLACE p(e.nosuch) = 1")
	if err != nil {
		t.Fatal(err)
	}
	store := state.NewStore()
	el := element.New("S", 10, element.NewTuple(entrySchema, element.String("a"), element.String("b")))
	if _, err := set.Apply(el, store); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error should name the rule: %v", err)
	}
}

func TestSetRequiresActions(t *testing.T) {
	if _, err := NewSet(&Rule{Name: "x", Trigger: &StreamTrigger{Stream: "S", Alias: "e"}}); err == nil {
		t.Error("rule without actions should be rejected")
	}
}
