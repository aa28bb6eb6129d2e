package core

import (
	"testing"
	"time"

	"repro/internal/cql"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/window"
	"repro/internal/workload"
)

// TestSystemSecurityWorkload is the end-to-end soak test for the security
// scenario at full workload scale: rules, state, queries, log persistence
// and recovery all in one run, with ground-truth verification at many
// probe points.
func TestSystemSecurityWorkload(t *testing.T) {
	cfg := workload.DefaultBuilding()
	els, truth := workload.Building(cfg)

	e := New(StateFirst)
	wal, walDir := attachWAL(t, e.Store())
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room
RULE exit ON BuildingExit AS r THEN RETRACT position(r.visitor)`); err != nil {
		t.Fatal(err)
	}
	msgs := stream.WithPeriodicWatermarks(els, temporal.Instant(time.Minute))
	if err := e.Run(msgs); err != nil {
		t.Fatal(err)
	}

	// Probe the state against ground truth across the whole run.
	horizon := els[len(els)-1].Timestamp
	checked := 0
	for at := temporal.Instant(0); at < horizon; at += horizon / 50 {
		for _, f := range e.Store().List(state.WithAttribute("position"), state.AsOfValidTime(at)) {
			want := workload.TrueRoomAt(truth, f.Entity, at)
			if want == "" {
				continue // boundary instant between stays
			}
			if got := f.Value.MustString(); got != want {
				t.Fatalf("at %d: %s in %s, truth says %s", at, f.Entity, got, want)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("too few probes checked: %d", checked)
	}

	// All visitors exited: no current positions remain.
	if cur := e.Store().List(state.WithAttribute("position")); len(cur) != 0 {
		t.Fatalf("positions after all exits: %v", cur)
	}

	// Recovery: replay the log into a fresh store and compare full
	// histories.
	restored := replayWAL(t, wal, walDir)
	a, b := e.Store().Scan(nil), restored.Scan(nil)
	if len(a) != len(b) {
		t.Fatalf("recovered %d versions, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Entity != b[i].Entity || !a[i].Value.Equal(b[i].Value) || a[i].Validity != b[i].Validity {
			t.Fatalf("recovery divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSystemEcommerceWorkload runs the full §3.1 pipeline — catalogue
// rules, enrichment, windowed aggregation, taxonomy-free — at workload
// scale and cross-checks the aggregated revenue per class against a
// ground-truth computation.
func TestSystemEcommerceWorkload(t *testing.T) {
	cfg := workload.DefaultEcommerce()
	cfg.Sales = 2000
	els, truth := workload.Ecommerce(cfg)

	e := New(StateFirst)
	if err := e.DeployRules(`
RULE classify ON Reclassify AS c THEN REPLACE class(c.product) = c.class`); err != nil {
		t.Fatal(err)
	}
	windowSize := temporal.Instant(time.Minute)
	trend := cql.NewQuery("Trend", "Sale", window.NewTumblingTime(windowSize), false, cql.IStream,
		cql.NewAggregate([]string{"class"},
			cql.AggSpec{Func: cql.Sum, Field: "amount", As: "revenue"}),
	)
	if err := e.DeployProcessor(&Processor{
		Name:   "trend",
		Source: "Sale",
		Enrich: []EnrichSpec{{Attr: "class", EntityField: "product", As: "class"}},
		Op:     trend,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.WithPeriodicWatermarks(els, windowSize)); err != nil {
		t.Fatal(err)
	}
	last := els[len(els)-1].Timestamp
	if err := e.Process(stream.WatermarkMsg(last + windowSize)); err != nil {
		t.Fatal(err)
	}

	// Sum the engine's emitted per-window revenues per class and compare
	// with ground truth computed from raw events.
	got := map[string]float64{}
	for _, el := range e.Output("trend") {
		got[el.MustGet("class").MustString()] += el.MustGet("revenue").MustFloat()
	}
	want := map[string]float64{}
	for _, el := range els {
		if el.Stream != "Sale" {
			continue
		}
		cls := workload.TrueClassAt(truth, el.MustGet("product").MustString(), el.Timestamp)
		want[cls] += el.MustGet("amount").MustFloat()
	}
	if len(got) != len(want) {
		t.Fatalf("class sets differ: got %d want %d", len(got), len(want))
	}
	for cls, w := range want {
		g := got[cls]
		if diff := g - w; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("class %s: revenue %f want %f", cls, g, w)
		}
	}
}

// TestSystemClickstreamWorkload exercises session rules at workload
// scale: every session's Leave retracts its Enter, and the per-user visit
// counters agree with the generator.
func TestSystemClickstreamWorkload(t *testing.T) {
	cfg := workload.DefaultClickstream()
	cfg.Users = 20
	els, _ := workload.Clickstream(cfg)
	// The generator uses field "visitor".
	e := New(StateFirst)
	if err := e.DeployRules(`
RULE open ON Enter AS x THEN REPLACE active(x.visitor) = true,
     REPLACE visits(x.visitor) = coalesce(visits(x.visitor), 0) + 1
RULE close ON Leave AS x THEN RETRACT active(x.visitor)`); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	active, err := e.Query("SELECT count(*) FROM active")
	if err != nil {
		t.Fatal(err)
	}
	if n := active.Rows[0][0].MustInt(); n != 0 {
		t.Fatalf("%d users still active after every session left", n)
	}
	// Every user made SessionsPerUser visits; the counter state knows.
	res, err := e.Query("SELECT entity, value FROM visits ORDER BY entity")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cfg.Users {
		t.Fatalf("visit counters: %d users", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].MustInt() != int64(cfg.SessionsPerUser) {
			t.Fatalf("user %s: %d visits, want %d", row[0], row[1].MustInt(), cfg.SessionsPerUser)
		}
	}
}

// attachWAL logs every mutation of st to a fresh WAL chain — never
// truncated, since no durability flush cuts it — and returns the log
// and its directory, for replayWAL.
func attachWAL(t *testing.T, st *state.Store) (*state.Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := state.RecoverWALDir(dir, st, temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachLog(l)
	return l, dir
}

// replayWAL closes l and recovers a fresh store from the full chain in
// dir.
func replayWAL(t *testing.T, l *state.Log, dir string) *state.Store {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := state.NewStore()
	l2, _, err := state.RecoverWALDir(dir, st, temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}
