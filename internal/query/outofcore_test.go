package query

// Out-of-core query equivalence: the full oracle corpus executed against
// a durable store whose every lineage has been evicted from RAM must
// match the all-resident in-memory store result for result, at every
// parallelism — scans ride the merged gather's cold union, and residual
// predicates' point lookups fall through to segment frames.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/temporal"
)

// labelWrites adds string-valued lineages of varying frame sizes, with
// sourced corrections, to a store seeded by planSeedStore's schedule.
func labelWrites(t *testing.T, db state.StateDB) {
	t.Helper()
	for i := 0; i < 40; i++ {
		ent := fmt.Sprintf("e%03d", i)
		for v := 0; v <= i%5; v++ {
			label := strings.Repeat(string(rune('a'+v)), 1+(i*37+v*11)%90)
			opts := []state.WriteOpt{state.WithValidTime(temporal.Instant(20 + 10*v))}
			if v%2 == 1 {
				opts = append(opts, state.WithSource(fmt.Sprintf("rule-%d", i%3)))
			}
			if err := db.Put(ent, "label", element.String(label), opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// cloneResult deep-copies a result, strings included, so a later
// comparison catches a result whose strings alias reused memory.
func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	c := &Result{Columns: append([]string(nil), r.Columns...)}
	for _, row := range r.Rows {
		cr := make([]element.Value, len(row))
		for i, v := range row {
			cr[i] = cloneValue(v)
		}
		c.Rows = append(c.Rows, cr)
	}
	return c
}

// cloneFacts deep-copies scanned facts, strings included.
func cloneFacts(facts []*element.Fact) []*element.Fact {
	out := make([]*element.Fact, len(facts))
	for i, f := range facts {
		c := *f
		c.Entity, c.Attribute = strings.Clone(f.Entity), strings.Clone(f.Attribute)
		c.Source, c.Value = strings.Clone(f.Source), cloneValue(f.Value)
		out[i] = &c
	}
	return out
}

// cloneValue deep-copies a value's string.
func cloneValue(v element.Value) element.Value {
	if s, ok := v.AsString(); ok {
		return element.String(strings.Clone(s))
	}
	return v
}

// TestPreparedExecColdMatchesResident runs the whole oracle corpus twice
// — all-resident versus fully evicted — at every parallelism. The evicted
// store replays planSeedStore's exact schedule, so the logical clocks
// advance identically on both sides and results must be equal. String
// lineages with sourced versions ride along. The first result and raw
// label scan of each parallelism are kept and compared again at the
// end, after later scans have decoded frames of other sizes: an answer
// aliasing decode memory would have changed.
func TestPreparedExecColdMatchesResident(t *testing.T) {
	const keys = 100
	st := planSeedStore(t, keys)
	labelWrites(t, st)
	snap := st.Snapshot()

	d, err := segment.Open(t.TempDir(), segment.WithResidencyBudget(1))
	if err != nil {
		t.Fatalf("open segment store: %v", err)
	}
	defer d.Close()
	cm := d.Mem()
	for i := 0; i < keys; i++ {
		ent := fmt.Sprintf("e%03d", i)
		if err := cm.Replace(ent, "value", element.Int(int64(i)), temporal.Instant(10+i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := cm.Replace(ent, "badge", element.Int(int64(i%7)), temporal.Instant(10+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cm.Put("e003", "value", element.Int(999),
		state.WithValidTime(11), state.WithEndValidTime(13)); err != nil {
		t.Fatal(err)
	}
	if err := cm.Delete("e004", "value", state.WithValidTime(500)); err != nil {
		t.Fatal(err)
	}
	labelWrites(t, cm)
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := d.EvictToBudget(0); n == 0 {
		t.Fatal("nothing evicted — corpus would run all-resident")
	}
	if n := d.Info().ResidentLineages; n != 0 {
		t.Fatalf("%d lineages still resident", n)
	}
	csnap := cm.Snapshot()

	type kept struct {
		res, resCopy     *Result
		facts, factsCopy []*element.Fact
	}
	first := map[int]*kept{}
	now := temporal.Instant(200)
	queries := append([]string{
		"SELECT * FROM label HISTORY",
		"SELECT entity, value FROM label SYSTEM TIME ASOF 150",
	}, oracleQueries...)
	for _, src := range queries {
		want, wantErr := (&Executor{Store: snap, Now: now}).Run(src)
		got, gotErr := (&Executor{Store: csnap, Now: now}).Run(src)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%q serial: err %v, want %v", src, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: cold serial result diverged from resident", src)
		}
		p, err := Prepare(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, par := range []int{0, 1, 4, 32} {
			got, gotErr := p.Exec(ExecEnv{Store: csnap, Now: now, Parallelism: par})
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%q par=%d: err %v, want %v", src, par, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q par=%d: cold Exec result diverged from resident", src, par)
			}
			if first[par] == nil {
				spec := state.ScanSpec{Opts: []state.ReadOpt{state.WithAttribute("label"), state.AllVersions()}, Parallelism: par}
				facts, stats := csnap.ScanPartitioned(spec)
				if want, _ := snap.ScanPartitioned(spec); stats.Err != nil || len(facts) == 0 || !reflect.DeepEqual(facts, want) {
					t.Fatalf("par=%d: cold label scan diverged from resident (%v)", par, stats.Err)
				}
				first[par] = &kept{got, cloneResult(got), facts, cloneFacts(facts)}
			}
		}
	}
	for par, k := range first {
		if !reflect.DeepEqual(k.res, k.resCopy) || !reflect.DeepEqual(k.facts, k.factsCopy) {
			t.Fatalf("par=%d: a kept cold answer changed under later scans", par)
		}
	}
	if d.Info().ScanFrames == 0 {
		t.Fatal("corpus never read a cold frame — the cold path did not run")
	}
}
