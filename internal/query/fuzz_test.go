package query

import (
	"reflect"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
)

// FuzzParseQuery asserts the query parser never panics, successful
// parses are print/reparse stable, and execution against a small store
// never panics.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"SELECT entity, value FROM position",
		"SELECT * FROM * HISTORY LIMIT 3",
		"SELECT value, count(*) FROM position ASOF now() - 5m GROUP BY value ORDER BY value DESC",
		"SELECT entity FROM position DURING 0 TO 100 WHERE value = 'lab'",
		"SELECT entity FROM t WITH INFERENCE",
		"SELECT",
		"SELECT entity FROM",
		"select lower from position",
		"SELECT min(start), max(end) FROM * HISTORY",
		"SELECT entity, value FROM position ASOF 1m SYSTEM TIME ASOF 30s",
		"SELECT entity, recorded, superseded FROM * HISTORY SYSTEM TIME ASOF now()",
		"SELECT entity FROM position WHERE EXISTS badge(entity) ORDER BY entity LIMIT 1",
		"SELECT entity, value FROM position WHERE value > 1 and value < 9",
		"SELECT entity FROM position WHERE 3 <= value and lower(entity) = 'ann'",
		"SELECT entity FROM position WHERE value = 7 and badge(entity) = 7",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	st := state.NewStore()
	st.Replace("ann", "position", element.String("hall"), 0)
	st.Replace("ann", "position", element.String("lab"), 50)
	st.Replace("ann", "badge", element.Int(7), 0)

	f.Fuzz(func(t *testing.T, src string) {
		q1, err := Parse(src)
		if err != nil {
			return
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed query does not reparse: %q -> %q: %v", src, printed, err)
		}
		if q2.String() != printed {
			t.Fatalf("unstable print: %q -> %q -> %q", src, printed, q2.String())
		}
		// Execution must not panic; errors (e.g. inference without a
		// reasoner) are acceptable.
		ex := &Executor{Store: st, Now: 100}
		_, _ = ex.Execute(q1)

		// Prepare → Explain → Exec round trip: planning must succeed for
		// any parsed query, the plan must carry the printed source, and a
		// partitioned execution over a snapshot must agree with the serial
		// executor whenever both succeed.
		p, err := Prepare(printed)
		if err != nil {
			t.Fatalf("parsed query does not prepare: %q: %v", printed, err)
		}
		pl := p.Explain()
		if pl == nil || pl.Source != printed {
			t.Fatalf("plan source mismatch: %q -> %+v", printed, pl)
		}
		snap := st.Snapshot()
		got, gotErr := p.Exec(ExecEnv{Store: snap, Now: 100, Parallelism: 4})
		want, wantErr := (&Executor{Store: snap, Now: 100}).Execute(q1)
		if gotErr == nil && wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("partitioned exec diverges for %q:\ngot  %v\nwant %v", printed, got, want)
		}
	})
}
