package query

// Out-of-core query equivalence: the full oracle corpus executed against
// a durable store whose every lineage has been evicted from RAM must
// match the all-resident in-memory store result for result, at every
// parallelism — scans ride the merged gather's cold union, and residual
// predicates' point lookups fall through to segment frames.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/temporal"
)

// TestPreparedExecColdMatchesResident runs the whole oracle corpus twice
// — all-resident versus fully evicted — at every parallelism. The evicted
// store replays planSeedStore's exact schedule, so the logical clocks
// advance identically on both sides and results must be equal.
func TestPreparedExecColdMatchesResident(t *testing.T) {
	const keys = 100
	st := planSeedStore(t, keys)
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

	now := temporal.Instant(200)
	for _, src := range oracleQueries {
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
		}
	}
	if d.Info().ScanFrames == 0 {
		t.Fatal("corpus never read a cold frame — the cold path did not run")
	}
}
