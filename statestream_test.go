package statestream_test

import (
	"fmt"
	"testing"
	"time"

	statestream "repro"
)

var schema = statestream.NewSchema(
	statestream.Field{Name: "visitor", Kind: statestream.KindString},
	statestream.Field{Name: "room", Kind: statestream.KindString},
)

func entry(at time.Duration, visitor, room string) *statestream.Element {
	return statestream.NewElement("RoomEntry", statestream.Instant(at),
		statestream.NewTuple(schema, statestream.String(visitor), statestream.String(room)))
}

// TestPublicAPIEndToEnd exercises the README quickstart path through the
// facade only: rules, run, current + historical queries.
func TestPublicAPIEndToEnd(t *testing.T) {
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(2*time.Minute, "ann", "lab"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Query("SELECT entity, value FROM position")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].MustString() != "lab" {
		t.Fatalf("current: %v", res.Rows)
	}
	res, err = engine.Query("SELECT value FROM position ASOF 90000000000 WHERE entity = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("historical: %v", res.Rows)
	}
}

func TestPublicAPIProcessorsAndGates(t *testing.T) {
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployRules(`
RULE mark ON RoomEntry AS r WHERE r.room = 'vault'
THEN REPLACE flagged(r.visitor) = true`); err != nil {
		t.Fatal(err)
	}
	gate, err := statestream.ParseExpr("EXISTS flagged(e.visitor)")
	if err != nil {
		t.Fatal(err)
	}
	q := statestream.NewContinuousQuery("Flags", "RoomEntry",
		statestream.NewTumblingTime(statestream.Instant(time.Hour)), false,
		statestream.IStream,
		statestream.Aggregate([]string{"visitor"},
			statestream.AggSpec{Func: statestream.Count, As: "moves"}),
	)
	if err := engine.DeployProcessor(&statestream.Processor{
		Name: "flagged-moves", Source: "RoomEntry", Gate: gate, Op: q,
	}); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(2*time.Minute, "ann", "vault"), // flags ann; passes gate same tick
		entry(3*time.Minute, "ann", "lab"),
		entry(4*time.Minute, "bob", "hall"), // never flagged
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	if err := engine.Process(statestream.WatermarkMsg(statestream.Instant(time.Hour))); err != nil {
		t.Fatal(err)
	}
	out := engine.Output("flagged-moves")
	if len(out) != 1 || out[0].MustGet("moves").MustInt() != 2 {
		t.Fatalf("gated aggregate: %v", out)
	}
	stats := engine.Stats()
	if stats[0].Gated != 2 { // ann@hall (pre-flag) + bob@hall
		t.Fatalf("stats: %+v", stats)
	}
}

func TestPublicAPIReasoning(t *testing.T) {
	engine := statestream.New(statestream.StateFirst)
	ont := statestream.NewOntology()
	if err := ont.SubClassOf("novel", "books"); err != nil {
		t.Fatal(err)
	}
	r := engine.EnableReasoning(ont)
	if err := r.AddRule(statestream.HornRule{
		Name: "promoted",
		Body: []statestream.TriplePattern{
			{Attr: "type", Entity: statestream.Var("x"), Value: statestream.Const(statestream.String("books"))},
		},
		Head: statestream.TriplePattern{
			Attr: "shelf", Entity: statestream.Var("x"), Value: statestream.Const(statestream.String("back")),
		},
	}); err != nil {
		t.Fatal(err)
	}
	engine.Store().Replace("p1", "type", statestream.String("novel"), 0)
	engine.Process(statestream.WatermarkMsg(10))
	res, err := engine.Query("SELECT entity FROM shelf WHERE value = 'back' WITH INFERENCE")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "p1" {
		t.Fatalf("chained inference: %v", res.Rows)
	}
}

func TestPublicAPIPatternsAndWindows(t *testing.T) {
	m, err := statestream.NewMatcher(statestream.WithinPattern(
		statestream.SequencePattern(
			statestream.EventPattern("A"), statestream.EventPattern("B")),
		statestream.Instant(time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	a := statestream.NewElement("A", 0, statestream.NewTuple(schema, statestream.String("x"), statestream.String("y")))
	b := statestream.NewElement("B", 10, statestream.NewTuple(schema, statestream.String("x"), statestream.String("y")))
	m.Observe(a)
	got := m.Observe(b)
	if len(got) != 1 || got[0].Interval != statestream.NewInterval(0, 11) {
		t.Fatalf("pattern match: %v", got)
	}

	w := statestream.NewSessionWindow(statestream.Instant(time.Minute),
		func(e *statestream.Element) string { return e.MustGet("visitor").MustString() })
	w.Observe(entry(0, "ann", "hall"))
	panes := w.AdvanceTo(statestream.Instant(2 * time.Minute))
	if len(panes) != 1 || panes[0].Key != "ann" {
		t.Fatalf("session window: %v", panes)
	}
}

func TestPublicAPIStoreAndFacts(t *testing.T) {
	st := statestream.NewStore()
	if err := st.Put("e", "a", statestream.Int(1), statestream.WithValidTime(5)); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Find("e", "a"); !ok || got.Value.MustInt() != 1 || got.Validity != statestream.Since(5) {
		t.Fatalf("store: %v %v", got, ok)
	}
	if statestream.Forever <= 0 || statestream.MinInstant >= 0 {
		t.Error("sentinels")
	}
	if statestream.FromTime(time.Unix(1, 0)) != statestream.FromMillis(1000) {
		t.Error("time conversions")
	}
	if statestream.Bool(true).Kind() != statestream.KindBool ||
		statestream.Float(1).Kind() != statestream.KindFloat ||
		statestream.Time(1).Kind() != statestream.KindTime ||
		!statestream.Null.IsNull() {
		t.Error("value constructors")
	}
}

func TestPublicAPIRuleSetAndMerge(t *testing.T) {
	set, err := statestream.ParseRules(`
RULE a ON RoomEntry AS x THEN REPLACE p(x.visitor) = x.room`)
	if err != nil || set.Len() != 1 {
		t.Fatalf("ParseRules: %v %v", set, err)
	}
	engine := statestream.New(statestream.StreamFirst)
	engine.DeployRuleSet(set)

	a := []*statestream.Element{entry(1, "a", "r")}
	b := []*statestream.Element{entry(2, "b", "r")}
	merged := statestream.MergeSorted(a, b)
	if len(merged) != 2 || merged[0].Timestamp != 1 {
		t.Fatalf("merge: %v", merged)
	}
	msgs := statestream.WithPeriodicWatermarks(merged, 10)
	if err := engine.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if st := engine.Store().Stats(); st.Keys != 2 {
		t.Fatalf("state after run: %+v", st)
	}
	if engine.Policy() != statestream.StreamFirst {
		t.Error("policy accessor")
	}
}

func TestPublicAPIRelationalOps(t *testing.T) {
	// Select + Project compose in a continuous query.
	q := statestream.NewContinuousQuery("Q", "RoomEntry",
		statestream.NewTumblingCount(2), false, statestream.IStream,
		statestream.Select(func(tp *statestream.Tuple) bool {
			return tp.MustGet("room").MustString() != "hall"
		}),
		statestream.Project("visitor"),
	)
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployProcessor(&statestream.Processor{Name: "q", Op: q}); err != nil {
		t.Fatal(err)
	}
	engine.Run(statestream.FromElements([]*statestream.Element{
		entry(1, "ann", "hall"), entry(2, "bob", "lab"),
	}))
	out := engine.Output("q")
	if len(out) != 1 || out[0].Tuple.Schema().Len() != 1 {
		t.Fatalf("relational chain: %v", out)
	}
}

// TestPublicAPIBitemporal exercises the StateDB surface and the SYSTEM
// TIME dialect through the facade only: option-based construction,
// retroactive correction, belief-pinned reads and queries.
func TestPublicAPIBitemporal(t *testing.T) {
	engine := statestream.New(statestream.WithPolicy(statestream.StateFirst))
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(3*time.Minute, "ann", "lab"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}

	// Retroactive correction recorded at t=10m: ann was in the vault over
	// [90s, 150s).
	var db statestream.StateDB = engine.DB()
	if err := db.Put("ann", "position", statestream.String("vault"),
		statestream.WithValidTime(statestream.Instant(90*time.Second)),
		statestream.WithEndValidTime(statestream.Instant(150*time.Second)),
		statestream.WithTransactionTime(statestream.Instant(10*time.Minute))); err != nil {
		t.Fatal(err)
	}

	// Corrected read through Find.
	if f, ok := db.Find("ann", "position",
		statestream.AsOfValidTime(statestream.Instant(2*time.Minute))); !ok || f.Value.MustString() != "vault" {
		t.Fatalf("corrected find: %v %v", f, ok)
	}
	// Belief-pinned read predates the correction.
	if f, ok := db.Find("ann", "position",
		statestream.AsOfValidTime(statestream.Instant(2*time.Minute)),
		statestream.AsOfTransactionTime(statestream.Instant(5*time.Minute))); !ok || f.Value.MustString() != "hall" {
		t.Fatalf("belief-pinned find: %v %v", f, ok)
	}
	// The SYSTEM TIME dialect agrees.
	res, err := engine.Query(fmt.Sprintf(
		"SELECT value FROM position ASOF %d SYSTEM TIME ASOF %d WHERE entity = 'ann'",
		statestream.Instant(2*time.Minute), statestream.Instant(5*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("SYSTEM TIME query: %v", res.Rows)
	}
	// The audit trail retains the superseded record.
	audit := db.History("ann", "position", statestream.AllVersions())
	superseded := 0
	for _, f := range audit {
		if f.Superseded() {
			superseded++
		}
	}
	if superseded == 0 {
		t.Fatal("correction should supersede, not destroy")
	}
}

// TestPublicAPIDurableRecovery exercises the durability surface through
// the facade only: a durable engine killed without Close recovers its
// state — current and SYSTEM TIME reads — on the next construction, and
// a standalone durable store round-trips a flush.
func TestPublicAPIDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	engine := statestream.New(statestream.WithDurableDir(dir))
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(2*time.Minute, "ann", "lab"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	// Crash: no flush (Abandon drops the directory lock and descriptors
	// exactly as process death would). The WAL tail alone must carry the
	// state. Rules are code, not state: the restarted engine redeploys
	// them.
	engine.Durable().Abandon()
	reborn := statestream.New(statestream.WithDurableDir(dir))
	if err := reborn.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	if err := reborn.Run([]statestream.Message{
		statestream.ElementMsg(entry(3*time.Minute, "ann", "vault")),
		statestream.WatermarkMsg(statestream.Instant(4 * time.Minute)),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := reborn.Query("SELECT entity, value FROM position")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].MustString() != "vault" {
		t.Fatalf("current after restart: %v", res.Rows)
	}
	// The pre-crash history survived: ann was in the hall at t=90s.
	res, err = reborn.Query("SELECT value FROM position ASOF 90000000000 WHERE entity = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("historical after restart: %v", res.Rows)
	}
	if reborn.Durable() == nil {
		t.Fatal("Durable() should expose the segment store")
	}
	if err := reborn.Close(); err != nil {
		t.Fatal(err)
	}

	sdir := t.TempDir()
	ds, err := statestream.OpenDurableStore(sdir, statestream.DurableFlushEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("ann", "clearance", statestream.String("secret")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := statestream.OpenDurableStore(sdir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	var info statestream.DurableInfo = ds2.Info()
	if info.Segments == 0 {
		t.Fatalf("close should have flushed a segment: %+v", info)
	}
	if f, ok := ds2.Find("ann", "clearance"); !ok || f.Value.MustString() != "secret" {
		t.Fatalf("standalone durable store lost the fact: %v ok=%v", f, ok)
	}
}
