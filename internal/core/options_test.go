package core

import (
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// TestNewOptions covers the option-based constructor and the shimmed
// positional form New(policy).
func TestNewOptions(t *testing.T) {
	if e := New(); e.policy != StateFirst {
		t.Errorf("default policy: %v", e.policy)
	}
	if e := New(Snapshot); e.policy != Snapshot {
		t.Errorf("positional policy shim: %v", e.policy)
	}
	if e := New(WithPolicy(StreamFirst)); e.policy != StreamFirst {
		t.Errorf("WithPolicy: %v", e.policy)
	}
}

// TestEngineDB exposes the bitemporal surface through the engine.
func TestEngineDB(t *testing.T) {
	e := New(StateFirst)
	if err := e.DB().Put("ann", "position", element.String("hall"),
		state.WithValidTime(10), state.WithTransactionTime(10)); err != nil {
		t.Fatal(err)
	}
	if f, ok := e.Store().Find("ann", "position"); !ok || f.Value.MustString() != "hall" {
		t.Fatalf("DB write not visible through store: %v %v", f, ok)
	}
}

// TestSnapshotTransactionConsistency is the policy's new contract: a
// retroactive correction recorded after the watermark must not leak into
// the micro-batch view, even though its valid time predates the
// watermark. (A valid-time-only snapshot would see it.)
func TestSnapshotTransactionConsistency(t *testing.T) {
	e := New(Snapshot)
	if err := e.DeployProcessor(&Processor{
		Name: "flagged", Source: "Enter",
		Gate: mustExpr(t, "EXISTS flag(e.visitor)"),
	}); err != nil {
		t.Fatal(err)
	}
	mk := func(ts int64) *element.Element {
		return element.New("Enter", temporal.Instant(ts),
			element.NewTuple(entrySchema, element.String("ann"), element.String("-")))
	}

	// Watermark at 10 pins the micro-batch view (valid AND transaction
	// time 10).
	e.Process(stream.WatermarkMsg(10))

	// At tx 20 we retroactively learn ann was flagged since t=0.
	if err := e.DB().Put("ann", "flag", element.Bool(true),
		state.WithValidTime(0), state.WithTransactionTime(20)); err != nil {
		t.Fatal(err)
	}

	// An element inside the micro-batch: the view at 10 did not believe
	// the flag yet, so the gate must drop it.
	e.Process(stream.ElementMsg(mk(21)))
	if got := len(e.Output("flagged")); got != 0 {
		t.Fatalf("retroactive correction leaked into the snapshot view: %d", got)
	}

	// After the next watermark the belief includes the correction.
	e.Process(stream.WatermarkMsg(30))
	e.Process(stream.ElementMsg(mk(31)))
	if got := len(e.Output("flagged")); got != 1 {
		t.Fatalf("correction should be visible after the watermark: %d", got)
	}

	// Control: StateFirst reads the current belief and passes the element
	// immediately after the retroactive write.
	c := New(StateFirst)
	if err := c.DeployProcessor(&Processor{
		Name: "flagged", Source: "Enter",
		Gate: mustExpr(t, "EXISTS flag(e.visitor)"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.DB().Put("ann", "flag", element.Bool(true),
		state.WithValidTime(0), state.WithTransactionTime(20)); err != nil {
		t.Fatal(err)
	}
	c.Process(stream.ElementMsg(mk(21)))
	if got := len(c.Output("flagged")); got != 1 {
		t.Fatalf("StateFirst should see the current belief: %d", got)
	}
}

// TestSnapshotEnrichmentConsistency checks the same pin for enrichment:
// fields joined from state inside a micro-batch come from the watermark
// belief.
func TestSnapshotEnrichmentConsistency(t *testing.T) {
	e := New(Snapshot)
	if err := e.DeployProcessor(&Processor{
		Name: "enriched", Source: "Enter",
		Enrich: []EnrichSpec{{Attr: "tier", EntityField: "visitor", As: "tier"}},
	}); err != nil {
		t.Fatal(err)
	}
	e.Store().Replace("ann", "tier", element.String("silver"), 0)
	e.Process(stream.WatermarkMsg(10))

	// Retroactive upgrade recorded later: ann was gold all along.
	if err := e.DB().Put("ann", "tier", element.String("gold"),
		state.WithValidTime(0), state.WithTransactionTime(20)); err != nil {
		t.Fatal(err)
	}
	e.Process(stream.ElementMsg(element.New("Enter", 21,
		element.NewTuple(entrySchema, element.String("ann"), element.String("-")))))
	out := e.Output("enriched")
	if len(out) != 1 {
		t.Fatalf("outputs: %d", len(out))
	}
	if v, _ := out[0].Get("tier"); v.MustString() != "silver" {
		t.Fatalf("micro-batch should see the watermark belief, got %s", v)
	}
}
