package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// preparedEngine ingests the room-entry workload under one policy and
// returns the engine ready for querying.
func preparedEngine(t *testing.T, p Policy) *Engine {
	t.Helper()
	e := New(p)
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room
RULE visits ON RoomEntry AS r THEN REPLACE visits(r.visitor) = 1`); err != nil {
		t.Fatal(err)
	}
	var els []*element.Element
	for i := 0; i < 60; i++ {
		els = append(els, entry(int64(10+i), fmt.Sprintf("v%02d", i%20), fmt.Sprintf("room%d", i%5)))
	}
	if err := e.Run(stream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPreparedMatchesQueryAcrossPolicies is the engine-level oracle:
// under every interaction policy, the prepared partitioned execution of
// each temporal clause agrees byte for byte with the serial executor on
// the same pinned cut.
func TestPreparedMatchesQueryAcrossPolicies(t *testing.T) {
	srcs := []string{
		"SELECT entity, value FROM position",
		"SELECT entity, value FROM position ASOF 30",
		"SELECT * FROM position DURING 20 TO 50",
		"SELECT entity, start, end FROM position HISTORY",
		"SELECT entity, value FROM position ASOF 30 SYSTEM TIME ASOF 40",
		"SELECT value, count(*) FROM position GROUP BY value ORDER BY value",
	}
	for _, policy := range []Policy{StateFirst, StreamFirst, Snapshot} {
		e := preparedEngine(t, policy)
		snap := e.Store().Snapshot()
		for _, src := range srcs {
			ex := &query.Executor{Store: snap, Now: e.Watermark()}
			want, err := ex.Run(src)
			if err != nil {
				t.Fatalf("%v %q: %v", policy, src, err)
			}
			pq, err := e.Prepare(src)
			if err != nil {
				t.Fatalf("%v %q: %v", policy, src, err)
			}
			for _, par := range []int{1, 4} {
				got, err := pq.Exec(WithQueryParallelism(par))
				if err != nil {
					t.Fatalf("%v %q par=%d: %v", policy, src, par, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %q par=%d:\ngot  %v\nwant %v", policy, src, par, got, want)
				}
			}
			// Engine.Query is the same prepare-and-exec path.
			got, err := e.Query(src)
			if err != nil {
				t.Fatalf("%v %q: %v", policy, src, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %q via Query:\ngot  %v\nwant %v", policy, src, got, want)
			}
		}
	}
}

// TestPreparedQueryOptions exercises the per-execution knobs:
// AsOfSystemTime overrides the belief, and Explain reports the plan.
func TestPreparedQueryOptions(t *testing.T) {
	e := New(StateFirst)
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.FromElements([]*element.Element{entry(10, "ann", "hall")})); err != nil {
		t.Fatal(err)
	}
	oldWM := e.Watermark()
	if err := e.Run(stream.FromElements([]*element.Element{entry(20, "ann", "lab")})); err != nil {
		t.Fatal(err)
	}

	pq, err := e.Prepare("SELECT value FROM position")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].MustString() != "lab" {
		t.Fatalf("fresh exec: %v", res.Rows[0][0])
	}
	pqAsOf, err := e.Prepare("SELECT value FROM position ASOF 10")
	if err != nil {
		t.Fatal(err)
	}
	// AsOfSystemTime against the live store: the belief at the old
	// watermark did not yet contain the lab entry.
	res, err = pqAsOf.Exec(AsOfSystemTime(temporal.Instant(oldWM)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("systime exec: %v", res.Rows[0][0])
	}

	if pl := pq.Explain(); pl == nil || pl.Attribute != "position" || pl.Temporal != "current" {
		t.Fatalf("explain: %+v", pq.Explain())
	}
}
