package core

import (
	"testing"

	"repro/internal/cql"
	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/window"
)

var entrySchema = element.NewSchema(
	element.Field{Name: "visitor", Kind: element.KindString},
	element.Field{Name: "room", Kind: element.KindString},
)

var saleSchema = element.NewSchema(
	element.Field{Name: "product", Kind: element.KindString},
	element.Field{Name: "amount", Kind: element.KindFloat},
)

func entry(ts int64, visitor, room string) *element.Element {
	return element.New("RoomEntry", temporal.Instant(ts),
		element.NewTuple(entrySchema, element.String(visitor), element.String(room)))
}

func sale(ts int64, product string, amount float64) *element.Element {
	return element.New("Sale", temporal.Instant(ts),
		element.NewTuple(saleSchema, element.String(product), element.Float(amount)))
}

func mustExpr(t *testing.T, src string) lang.Expr {
	t.Helper()
	e, err := lang.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSecurityUseCase is the paper's §1 building-security scenario
// end-to-end: state management rules keep one position per visitor, and
// the state is queryable at any instant without contradictions.
func TestSecurityUseCase(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	msgs := stream.FromElements([]*element.Element{
		entry(10, "ann", "hall"), entry(20, "bob", "hall"),
		entry(30, "ann", "lab"), entry(40, "ann", "vault"), entry(50, "bob", "lab"),
	})
	if err := e.Run(msgs); err != nil {
		t.Fatal(err)
	}
	// At every probed instant each visitor is in exactly one room.
	for _, at := range []temporal.Instant{15, 25, 35, 45} {
		for _, who := range []string{"ann", "bob"} {
			facts := e.Store().List(state.WithAttribute("position"), state.AsOfValidTime(at))
			n := 0
			for _, f := range facts {
				if f.Entity == who {
					n++
				}
			}
			if n > 1 {
				t.Fatalf("visitor %s in %d rooms at %d", who, n, at)
			}
		}
	}
	res, err := e.Query("SELECT entity, value FROM position ORDER BY entity")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].MustString() != "vault" || res.Rows[1][1].MustString() != "lab" {
		t.Fatalf("final positions: %v", res.Rows)
	}
	// Historical query: where was ann at 35?
	res, err = e.Query("SELECT value FROM position ASOF 35 WHERE entity = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "lab" {
		t.Fatalf("ann at 35: %v", res.Rows)
	}
}

// TestEcommerceTrendWithEnrichment is the §3.1 case study: sales trends
// grouped by the *current* product classification, where classification
// changes arrive on a separate stream handled by state management rules.
func TestEcommerceTrendWithEnrichment(t *testing.T) {
	e := New(StateFirst)
	reclassSchema := element.NewSchema(
		element.Field{Name: "product", Kind: element.KindString},
		element.Field{Name: "class", Kind: element.KindString},
	)
	if err := e.DeployRules(`
RULE classify ON Reclassify AS c THEN REPLACE class(c.product) = c.class`); err != nil {
		t.Fatal(err)
	}
	trend := cql.NewQuery("Trend", "Sale", window.NewTumblingTime(100), false, cql.IStream,
		cql.NewAggregate([]string{"class"},
			cql.AggSpec{Func: cql.Sum, Field: "amount", As: "total"}),
	)
	if err := e.DeployProcessor(&Processor{
		Name:   "trend",
		Source: "Sale",
		Enrich: []EnrichSpec{{Attr: "class", EntityField: "product", As: "class"}},
		Op:     trend,
	}); err != nil {
		t.Fatal(err)
	}
	reclass := func(ts int64, product, class string) *element.Element {
		return element.New("Reclassify", temporal.Instant(ts),
			element.NewTuple(reclassSchema, element.String(product), element.String(class)))
	}
	els := []*element.Element{
		reclass(0, "p1", "books"),
		sale(10, "p1", 5),
		sale(20, "p1", 7),
		reclass(50, "p1", "toys"), // reclassification mid-window
		sale(60, "p1", 100),
	}
	if err := e.Run(stream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	if err := e.Process(stream.WatermarkMsg(100)); err != nil {
		t.Fatal(err)
	}
	out := e.Output("trend")
	// Window [0,100): books=12, toys=100 — sales are attributed to the
	// classification current at sale time, not at window close.
	if len(out) != 2 {
		t.Fatalf("trend output: %v", out)
	}
	got := map[string]float64{}
	for _, el := range out {
		got[el.MustGet("class").MustString()] = el.MustGet("total").MustFloat()
	}
	if got["books"] != 12 || got["toys"] != 100 {
		t.Fatalf("totals: %v", got)
	}
}

// TestClickstreamGate is §1's click-stream scenario with §5's claim that
// state can "limit the amount of streaming data that needs to be
// analyzed": only active users' clicks reach the (expensive) processor.
func TestClickstreamGate(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployRules(`
RULE enter ON Enter AS x THEN REPLACE active(x.visitor) = true
RULE leave ON Leave AS x THEN RETRACT active(x.visitor)`); err != nil {
		t.Fatal(err)
	}
	if err := e.DeployProcessor(&Processor{
		Name:   "clicks",
		Source: "Click",
		Gate:   mustExpr(t, "EXISTS active(e.visitor)"),
	}); err != nil {
		t.Fatal(err)
	}
	mk := func(stream string, ts int64, who string) *element.Element {
		return element.New(stream, temporal.Instant(ts),
			element.NewTuple(entrySchema, element.String(who), element.String("-")))
	}
	els := []*element.Element{
		mk("Click", 5, "ann"), // before enter: gated
		mk("Enter", 10, "ann"),
		mk("Click", 20, "ann"), // passes
		mk("Click", 30, "bob"), // never entered: gated
		mk("Leave", 40, "ann"),
		mk("Click", 50, "ann"), // after leave: gated
	}
	if err := e.Run(stream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	out := e.Output("clicks")
	if len(out) != 1 || out[0].Timestamp != 20 {
		t.Fatalf("gated clicks: %v", out)
	}
	st := e.Stats()[0]
	if st.Seen != 4 || st.Gated != 3 || st.Processed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPolicySemantics checks the §3.3 ablation: an element whose rule
// updates state at t is visible to a same-timestamp gate only under
// StateFirst.
func TestPolicySemantics(t *testing.T) {
	build := func(p Policy) *Engine {
		e := New(p)
		if err := e.DeployRules(`
RULE enter ON Enter AS x THEN REPLACE active(x.visitor) = true`); err != nil {
			t.Fatal(err)
		}
		if err := e.DeployProcessor(&Processor{
			Name: "enters", Source: "Enter",
			Gate: mustExpr(t, "EXISTS active(e.visitor)"),
		}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	mk := func(ts int64, who string) *element.Element {
		return element.New("Enter", temporal.Instant(ts),
			element.NewTuple(entrySchema, element.String(who), element.String("-")))
	}
	// StateFirst: the Enter at t=10 activates ann before the gate runs.
	e1 := build(StateFirst)
	e1.Run(stream.FromElements([]*element.Element{mk(10, "ann")}))
	if len(e1.Output("enters")) != 1 {
		t.Error("StateFirst: same-tick state should be visible")
	}
	// StreamFirst: the gate sees the state as of t-1 — ann not yet active.
	e2 := build(StreamFirst)
	e2.Run(stream.FromElements([]*element.Element{mk(10, "ann")}))
	if len(e2.Output("enters")) != 0 {
		t.Error("StreamFirst: same-tick state should be invisible")
	}
	// Snapshot: visibility lags to the last watermark.
	e3 := build(Snapshot)
	e3.Process(stream.ElementMsg(mk(10, "ann")))
	e3.Process(stream.ElementMsg(mk(11, "ann"))) // still pre-watermark view
	if len(e3.Output("enters")) != 0 {
		t.Error("Snapshot: updates invisible before a watermark")
	}
	e3.Process(stream.WatermarkMsg(12))
	e3.Process(stream.ElementMsg(mk(13, "ann")))
	if len(e3.Output("enters")) != 1 {
		t.Error("Snapshot: updates visible after the watermark")
	}
}

func TestRuleEmitFlowsToProcessors(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployRules(`
RULE alarm ON RoomEntry AS r WHERE r.room = 'vault'
THEN EMIT Alarm(visitor = r.visitor)`); err != nil {
		t.Fatal(err)
	}
	if err := e.DeployProcessor(&Processor{Name: "alarms", Source: "Alarm"}); err != nil {
		t.Fatal(err)
	}
	e.Run(stream.FromElements([]*element.Element{
		entry(10, "ann", "hall"), entry(20, "ann", "vault"),
	}))
	if len(e.Output("alarms")) != 1 {
		t.Fatalf("alarm routing: %v", e.Output("alarms"))
	}
	if len(e.Emitted()) != 1 {
		t.Fatalf("emitted: %v", e.Emitted())
	}
}

func TestReasonerGateIntegration(t *testing.T) {
	// The gate can rely on derived knowledge: watch anything typed (via
	// taxonomy) as "staff".
	e := New(StateFirst)
	ont := reason.NewOntology()
	if err := ont.SubClassOf("guard", "staff"); err != nil {
		t.Fatal(err)
	}
	e.EnableReasoning(ont)
	e.Store().Replace("ann", "type", element.String("guard"), 0)

	if err := e.DeployProcessor(&Processor{
		Name: "staffmoves", Source: "RoomEntry",
		Gate: mustExpr(t, "type(e.visitor) = 'staff' OR EXISTS type(e.visitor)"),
	}); err != nil {
		t.Fatal(err)
	}
	e.Run(stream.FromElements([]*element.Element{
		entry(10, "ann", "lab"), entry(20, "zoe", "lab"),
	}))
	if len(e.Output("staffmoves")) != 1 {
		t.Fatalf("reasoned gate: %v", e.Output("staffmoves"))
	}
	// And WITH INFERENCE works through Engine.Query.
	res, err := e.Query("SELECT entity FROM type WHERE value = 'staff' WITH INFERENCE")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "ann" {
		t.Fatalf("inference query: %v", res.Rows)
	}
}

func TestEngineErrors(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployProcessor(&Processor{}); err == nil {
		t.Error("unnamed processor should be rejected")
	}
	if err := e.DeployProcessor(&Processor{Name: "p"}); err != nil {
		t.Fatal(err)
	}
	if err := e.DeployProcessor(&Processor{Name: "p"}); err == nil {
		t.Error("duplicate processor should be rejected")
	}
	if err := e.DeployRules("garbage"); err == nil {
		t.Error("bad rules should be rejected")
	}
	if got := e.Output("nosuch"); got != nil {
		t.Error("unknown processor output")
	}
}

func TestWatermarkMonotonic(t *testing.T) {
	e := New(StateFirst)
	e.Process(stream.WatermarkMsg(10))
	e.Process(stream.WatermarkMsg(5)) // regression ignored
	if e.Watermark() != 10 {
		t.Errorf("watermark: %d", e.Watermark())
	}
}

func TestEnrichMissingStateIsNull(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployProcessor(&Processor{
		Name: "p", Source: "Sale",
		Enrich: []EnrichSpec{{Attr: "class", EntityField: "product", As: "class"}},
	}); err != nil {
		t.Fatal(err)
	}
	e.Run(stream.FromElements([]*element.Element{sale(10, "p1", 1)}))
	out := e.Output("p")
	if len(out) != 1 {
		t.Fatal("missing output")
	}
	if v, ok := out[0].Get("class"); !ok || !v.IsNull() {
		t.Fatalf("enriched value: %v %v", v, ok)
	}
}

func TestElementsInCounter(t *testing.T) {
	e := New(StateFirst)
	e.Run(stream.FromElements([]*element.Element{sale(1, "a", 1), sale(2, "b", 2)}))
	if e.ElementsIn() != 2 {
		t.Errorf("elements in: %d", e.ElementsIn())
	}
	if e.policy.String() == "" || StreamFirst.String() == "" || Snapshot.String() == "" {
		t.Error("policy strings")
	}
}
