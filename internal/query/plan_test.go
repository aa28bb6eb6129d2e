package query

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// planSeedStore builds a store with numeric and string lineages,
// retroactive corrections, and a second attribute for cross-lineage
// WHERE lookups.
func planSeedStore(t testing.TB, keys int) *state.Store {
	t.Helper()
	st := state.NewStore()
	for i := 0; i < keys; i++ {
		ent := fmt.Sprintf("e%03d", i)
		if err := st.Replace(ent, "value", element.Int(int64(i)), temporal.Instant(10+i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := st.Replace(ent, "badge", element.Int(int64(i%7)), temporal.Instant(10+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Put("e003", "value", element.Int(999),
		state.WithValidTime(11), state.WithEndValidTime(13)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("e004", "value", state.WithValidTime(500)); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPrepareSplitsWhere pins the pushdown decision: row-local conjuncts
// push below the gather, state-reaching ones stay residual, and the plan
// reports both.
func TestPrepareSplitsWhere(t *testing.T) {
	p, err := Prepare("SELECT entity, value FROM value WHERE value > 10 and badge(entity) = 3 and entity != 'e000'")
	if err != nil {
		t.Fatal(err)
	}
	pl := p.Explain()
	if want := []string{"(value > 10)", "(entity != 'e000')"}; !reflect.DeepEqual(pl.PushedPredicates, want) {
		t.Fatalf("pushed = %v, want %v", pl.PushedPredicates, want)
	}
	if pl.ResidualPredicate != "(badge(entity) = 3)" {
		t.Fatalf("residual = %q", pl.ResidualPredicate)
	}
	if pl.ValueBounds != "10 < value" {
		t.Fatalf("bounds = %q", pl.ValueBounds)
	}
	if !pl.AttributeIndex || !pl.EnvelopePruning {
		t.Fatalf("plan flags: %+v", pl)
	}
	if pl.Temporal != "current" || pl.SystemTime {
		t.Fatalf("plan shape: %+v", pl)
	}
	// Explain must return the cached plan, not rebuild it.
	if p.Explain() != pl {
		t.Fatal("Explain rebuilt the plan")
	}
}

// TestExtractBounds pins the bounds compiler across operand orders,
// tightening, and non-extractable shapes.
func TestExtractBounds(t *testing.T) {
	cases := []struct {
		where string
		want  string
	}{
		{"value > 10", "10 < value"},
		{"value >= 10", "10 <= value"},
		{"10 < value", "10 < value"},
		{"value < 20 and value > 5", "5 < value < 20"},
		{"value > 5 and value > 8", "8 < value"},
		{"value = 42", "42 <= value <= 42"},
		{"value > 1.5", "1.5 < value"},
		{"value != 3", ""},              // not a range
		{"value > 'abc'", ""},           // non-numeric literal
		{"value + 1 > 10", ""},          // not a bare comparison
		{"entity > 10", ""},             // wrong column
		{"value > 10 or value < 2", ""}, // disjunction: one unsplittable conjunct
	}
	for _, c := range cases {
		p, err := Prepare("SELECT entity FROM value WHERE " + c.where)
		if err != nil {
			t.Fatalf("%q: %v", c.where, err)
		}
		if got := p.Explain().ValueBounds; got != c.want {
			t.Errorf("%q: bounds %q, want %q", c.where, got, c.want)
		}
	}
}

// oracleQueries is the equivalence corpus: every temporal clause, SYSTEM
// TIME composition, pushed and residual predicates, aggregates, ordering.
var oracleQueries = []string{
	"SELECT entity, value FROM value",
	"SELECT entity, value FROM value WHERE value > 50",
	"SELECT entity, value FROM value WHERE value > 50 and value < 70",
	"SELECT entity, value FROM value WHERE value > 10 and badge(entity) = 3",
	"SELECT entity, value FROM value WHERE EXISTS badge(entity)",
	"SELECT entity, value FROM value ASOF 12",
	"SELECT entity, value FROM value ASOF 12 SYSTEM TIME ASOF 40",
	"SELECT * FROM value DURING 10 TO 60",
	"SELECT entity, start, end FROM value HISTORY",
	"SELECT entity, start, end, recorded, superseded FROM value HISTORY SYSTEM TIME ASOF 50",
	"SELECT * FROM * HISTORY",
	"SELECT entity, value FROM value SYSTEM TIME ASOF 30",
	"SELECT value, count(*) FROM value WHERE value < 20 GROUP BY value ORDER BY value DESC LIMIT 5",
	"SELECT count(*), sum(value), avg(value), min(value), max(value) FROM value",
	"SELECT entity FROM value WHERE value > 90 ORDER BY entity LIMIT 3",
	"SELECT entity, value FROM nope",
}

// TestPreparedExecMatchesExecute is the serial-vs-partitioned oracle:
// for every corpus query and parallelism, Prepared.Exec over a snapshot
// equals the serial Executor byte for byte.
func TestPreparedExecMatchesExecute(t *testing.T) {
	st := planSeedStore(t, 100)
	snap := st.Snapshot()
	now := temporal.Instant(200)
	for _, src := range oracleQueries {
		ex := &Executor{Store: snap, Now: now}
		want, wantErr := ex.Run(src)
		p, err := Prepare(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, par := range []int{0, 1, 4, 32} {
			got, gotErr := p.Exec(ExecEnv{Store: snap, Now: now, Parallelism: par})
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%q par=%d: err %v, want %v", src, par, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q par=%d:\ngot  %v\nwant %v", src, par, got, want)
			}
		}
		// Serial fallback: a non-snapshot Reader takes the classic path
		// and must agree too.
		exLive := &Executor{Store: st, Now: now}
		wantLive, wantLiveErr := exLive.Run(src)
		gotLive, gotLiveErr := p.Exec(ExecEnv{Store: st, Now: now})
		if (gotLiveErr != nil) != (wantLiveErr != nil) {
			t.Fatalf("%q live: err %v, want %v", src, gotLiveErr, wantLiveErr)
		}
		if wantLiveErr == nil && !reflect.DeepEqual(gotLive, wantLive) {
			t.Fatalf("%q live:\ngot  %v\nwant %v", src, gotLive, wantLive)
		}
	}
}

// TestExecSysTimeOverride checks the per-execution belief pin overrides
// the query's SYSTEM TIME clause.
func TestExecSysTimeOverride(t *testing.T) {
	st := state.NewStore()
	if err := st.Replace("ann", "position", element.String("hall"), 10); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ann", "position", element.String("vault"),
		state.WithValidTime(10)); err != nil {
		t.Fatal(err)
	}
	p, err := Prepare("SELECT value FROM position ASOF 10 SYSTEM TIME ASOF 999")
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	res, err := p.Exec(ExecEnv{Store: snap, Now: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].MustString() != "vault" {
		t.Fatalf("clause belief: %v", res.Rows[0][0])
	}
	// Override back to the pre-correction belief.
	res, err = p.Exec(ExecEnv{Store: snap, Now: 100, SysTime: 10, HasSysTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("overridden belief: %v", res.Rows[0][0])
	}
}

// TestPreparedExecNoPlanAllocs is the zero-parse/zero-plan gate: an
// executed prepared query must allocate far less than preparing does,
// and within a fixed per-exec budget — if Exec ever re-parses or
// re-plans, both bounds blow up.
func TestPreparedExecNoPlanAllocs(t *testing.T) {
	st := state.NewStore()
	snap := st.Snapshot()
	const src = "SELECT entity, value FROM value SYSTEM TIME ASOF 50 WHERE value > 10 and value < 90"
	p, err := Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	env := ExecEnv{Store: snap, Now: 100}
	prepAllocs := testing.AllocsPerRun(200, func() {
		if _, err := Prepare(src); err != nil {
			t.Fatal(err)
		}
	})
	execAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Exec(env); err != nil {
			t.Fatal(err)
		}
	})
	explainAllocs := testing.AllocsPerRun(200, func() { _ = p.Explain() })
	if explainAllocs != 0 {
		t.Errorf("Explain allocates %.0f/op, want 0", explainAllocs)
	}
	if execAllocs >= prepAllocs/2 {
		t.Errorf("Exec allocates %.0f/op vs Prepare %.0f/op — is it re-planning?", execAllocs, prepAllocs)
	}
	const budget = 40
	if execAllocs > budget {
		t.Errorf("Exec allocates %.0f/op on an empty store, budget %d", execAllocs, budget)
	}
}
