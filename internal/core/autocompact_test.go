package core

import (
	"fmt"
	"testing"

	"repro/internal/element"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// TestWithAutoCompact drives a long ingest through an engine with
// growth-scheduled per-shard compaction: superseded history behind the
// retention window prunes itself as shards grow, the current state stays
// exact, and recent history (inside the window) survives for temporal
// queries.
func TestWithAutoCompact(t *testing.T) {
	const (
		sensors = 16
		n       = 6000
		retain  = 500 // nanoseconds of valid time behind the watermark
	)
	e := New(WithPolicy(StateFirst), WithAutoCompact(retain, 64))
	if err := e.DeployRules(`
RULE track ON Reading AS r
THEN REPLACE temperature(r.sensor) = r.celsius`); err != nil {
		t.Fatal(err)
	}

	schema := element.NewSchema(
		element.Field{Name: "sensor", Kind: element.KindString},
		element.Field{Name: "celsius", Kind: element.KindFloat},
	)
	els := make([]*element.Element, n)
	for i := 0; i < n; i++ {
		els[i] = element.New("Reading", temporal.Instant(i+1), element.NewTuple(schema,
			element.String(fmt.Sprintf("s%02d", i%sensors)),
			element.Float(float64(i))))
	}
	if err := e.Run(stream.WithPeriodicWatermarks(els, 100)); err != nil {
		t.Fatal(err)
	}

	stats := e.Store().Stats()
	// Each element appends ~2 records; auto-compaction must have kept the
	// store far below the uncompacted ~2n.
	if stats.Records > n {
		t.Fatalf("auto-compaction did not engage: %d records after %d elements", stats.Records, n)
	}
	for s := 0; s < sensors; s++ {
		name := fmt.Sprintf("s%02d", s)
		want := float64(n - sensors + s)
		f, ok := e.Store().Find(name, "temperature")
		if !ok {
			t.Fatalf("current value of %s lost", name)
		}
		if got, _ := f.Value.AsFloat(); got != want {
			t.Fatalf("current value of %s: got %v want %v", name, got, want)
		}
	}
	// History inside the retention window survives the sweeps.
	res, err := e.Query(fmt.Sprintf("SELECT entity, value FROM temperature ASOF %d", n-100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != sensors {
		t.Fatalf("recent history pruned: %d rows, want %d", len(res.Rows), sensors)
	}
}
