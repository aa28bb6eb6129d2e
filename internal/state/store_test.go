package state

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

func TestPutReplaceSemantics(t *testing.T) {
	s := NewStore()
	if err := s.Replace("v1", "position", element.String("hall"), 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace("v1", "position", element.String("lab"), 20); err != nil {
		t.Fatal(err)
	}
	cur, ok := s.Find("v1", "position")
	if !ok || cur.Value.MustString() != "lab" || cur.Validity != temporal.Since(20) {
		t.Fatalf("current: %v %v", cur, ok)
	}
	// The invariant the paper's security use case needs: at no instant are
	// two positions valid.
	if f, _ := s.Find("v1", "position", AsOfValidTime(15)); f.Value.MustString() != "hall" {
		t.Error("as-of 15 should be hall")
	}
	if f, _ := s.Find("v1", "position", AsOfValidTime(20)); f.Value.MustString() != "lab" {
		t.Error("as-of 20 should be lab (half-open boundary)")
	}
	hist := s.History("v1", "position")
	if len(hist) != 2 || hist[0].Validity != temporal.NewInterval(10, 20) {
		t.Fatalf("history: %v", hist)
	}
}

func TestPutSameInstantOverwrites(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 10)
	if err := s.Replace("e", "a", element.Int(2), 10); err != nil {
		t.Fatal(err)
	}
	hist := s.History("e", "a")
	if len(hist) != 1 || hist[0].Value.MustInt() != 2 {
		t.Fatalf("overwrite: %v", hist)
	}
}

func TestPutOutOfOrder(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 10)
	err := s.Replace("e", "a", element.Int(2), 5)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
}

func TestRetract(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 10)
	retract := func(e string, at temporal.Instant) {
		t.Helper()
		if err := s.Delete(e, "a", WithValidTime(at), WithTransactionTime(at)); err != nil {
			t.Fatal(err)
		}
	}
	retract("e", 30)
	if _, ok := s.Find("e", "a"); ok {
		t.Error("retracted key should have no current")
	}
	if f, ok := s.Find("e", "a", AsOfValidTime(20)); !ok || f.Validity != temporal.NewInterval(10, 30) {
		t.Errorf("history preserved: %v %v", f, ok)
	}
	// Retracting again, or an unknown key, is a no-op.
	retract("e", 40)
	retract("x", 40)
	if got := s.History("e", "a", AllVersions()); len(got) != 2 {
		t.Fatalf("no-op retractions recorded: %v", got)
	}
	// A retraction before the version's end is retroactive: it trims the
	// believed history instead of failing.
	retract("e", 20)
	if f, ok := s.Find("e", "a", AsOfValidTime(15)); !ok || f.Validity != temporal.NewInterval(10, 20) {
		t.Errorf("retroactive retraction: %v %v", f, ok)
	}
	if f, ok := s.Find("e", "a", AsOfValidTime(25)); ok {
		t.Errorf("retracted from 20 on: %v", f)
	}
}

// TestRetractBeforeStartDeletesVersion: a retraction stamped before the
// version's start is no longer ErrOutOfOrder; it retroactively removes
// the whole version from the believed history.
func TestRetractBeforeStartDeletesVersion(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 10)
	if err := s.Delete("e", "a", WithValidTime(5), WithTransactionTime(5)); err != nil {
		t.Fatal(err)
	}
	if f, ok := s.Find("e", "a"); ok {
		t.Errorf("retracted key should have no current: %v", f)
	}
	if got := s.History("e", "a"); len(got) != 0 {
		t.Errorf("believed history should be empty: %v", got)
	}
}

func TestRetractAtStartRemovesVersion(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 10)
	if err := s.Delete("e", "a", WithValidTime(10), WithTransactionTime(10)); err != nil {
		t.Fatal(err)
	}
	if len(s.History("e", "a")) != 0 {
		t.Error("zero-length version should be removed")
	}
	if got := s.Stats().Versions; got != 0 {
		t.Errorf("versions: %d", got)
	}
}

func TestCurrentByAttributeSorted(t *testing.T) {
	s := NewStore()
	s.Replace("bob", "position", element.String("r2"), 5)
	s.Replace("ann", "position", element.String("r1"), 5)
	s.Replace("ann", "badge", element.Int(7), 5)
	got := s.List(WithAttribute("position"))
	if len(got) != 2 || got[0].Entity != "ann" || got[1].Entity != "bob" {
		t.Fatalf("by attribute: %v", got)
	}
	if s.List(WithAttribute("nope")) != nil {
		t.Error("unknown attribute should be empty")
	}
}

func TestAsOfAndDuring(t *testing.T) {
	s := NewStore()
	s.Replace("ann", "position", element.String("r1"), 0)
	s.Replace("ann", "position", element.String("r2"), 10)
	s.Replace("bob", "position", element.String("r3"), 5)
	s.Delete("bob", "position", WithValidTime(8), WithTransactionTime(8))

	asof := s.List(AsOfValidTime(6))
	if len(asof) != 2 {
		t.Fatalf("as-of 6: %v", asof)
	}
	asof = s.List(AsOfValidTime(9))
	if len(asof) != 1 || asof[0].Entity != "ann" {
		t.Fatalf("as-of 9: %v", asof)
	}
	during := s.List(DuringValidTime(6, 11))
	if len(during) != 3 {
		t.Fatalf("during [6,11): %v", during)
	}
	if len(s.List(DuringValidTime(100, 200))) != 1 {
		t.Error("open version overlaps far future")
	}
}

func TestScanAndValiditySet(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 0)
	s.Delete("e", "a", WithValidTime(10), WithTransactionTime(10))
	s.Replace("e", "a", element.Int(2), 20)
	all := s.Scan(nil)
	if len(all) != 2 {
		t.Fatalf("scan: %v", all)
	}
	only2 := s.Scan(func(f *element.Fact) bool { return f.Value.MustInt() == 2 })
	if len(only2) != 1 {
		t.Fatalf("scan pred: %v", only2)
	}
	// The believed timeline is the key's validity set, gap included.
	hist := s.History("e", "a")
	if len(hist) != 2 || hist[0].Validity != temporal.NewInterval(0, 10) || hist[1].Validity != temporal.Since(20) {
		t.Fatalf("validity set: %v", hist)
	}
}

func TestWatchers(t *testing.T) {
	s := NewStore()
	var changes []Change
	s.WatchBatch(func(cs []Change) { changes = append(changes, cs...) })
	s.Replace("e", "a", element.Int(1), 10)
	s.Replace("e", "a", element.Int(2), 20) // terminate + assert
	s.Delete("e", "a", WithValidTime(30), WithTransactionTime(30))
	kinds := []ChangeKind{Asserted, Terminated, Asserted, Terminated}
	if len(changes) != len(kinds) {
		t.Fatalf("changes: %d", len(changes))
	}
	for i, k := range kinds {
		if changes[i].Kind != k {
			t.Errorf("change %d: got %v want %v", i, changes[i].Kind, k)
		}
	}
	if changes[1].Fact.Validity != temporal.NewInterval(10, 20) {
		t.Errorf("terminated validity: %v", changes[1].Fact.Validity)
	}
	if Asserted.String() != "asserted" || Terminated.String() != "terminated" {
		t.Error("kind strings")
	}
}

func TestViewSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.Replace("e", "a", element.Int(1), 10)
	// A view at 15: the snapshot pinned at 15, read as of 15 in valid time.
	v := s.SnapshotAt(15)
	if v.At() != 15 {
		t.Error("view instant")
	}
	// A later mutation must not change what the view sees.
	s.Replace("e", "a", element.Int(2), 20)
	f, ok := v.Find("e", "a", AsOfValidTime(15))
	if !ok || f.Value.MustInt() != 1 {
		t.Fatalf("view get: %v %v", f, ok)
	}
	if got := v.List(WithAttribute("a"), AsOfValidTime(15)); len(got) != 1 || got[0].Value.MustInt() != 1 {
		t.Fatalf("view by attribute: %v", got)
	}
	if got := v.List(AsOfValidTime(15)); len(got) != 1 {
		t.Fatalf("view all: %v", got)
	}
}

// TestLineageInvariantRandomized drives the store with random valid
// mutations and checks the core invariant: per-key versions are ordered,
// disjoint, and at most the last is open. It cross-checks ValidAt against
// a naive timeline model.
func TestLineageInvariantRandomized(t *testing.T) {
	const horizon = 200
	rng := rand.New(rand.NewSource(99))
	entities := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		s := NewStore()
		// model[entity][t] = value or -1
		model := map[string][]int64{}
		last := map[string]temporal.Instant{}
		for _, e := range entities {
			tl := make([]int64, horizon)
			for i := range tl {
				tl[i] = -1
			}
			model[e] = tl
		}
		for op := 0; op < 100; op++ {
			e := entities[rng.Intn(len(entities))]
			at := last[e] + temporal.Instant(rng.Intn(5))
			if at >= horizon {
				continue
			}
			last[e] = at
			if rng.Intn(4) == 0 {
				if err := s.Delete(e, "x", WithValidTime(at), WithTransactionTime(at)); err != nil {
					t.Fatalf("delete: %v", err)
				}
				for i := at; i < horizon; i++ {
					model[e][i] = -1
				}
			} else {
				val := int64(rng.Intn(100))
				if err := s.Replace(e, "x", element.Int(val), at); err != nil {
					t.Fatalf("put: %v", err)
				}
				for i := at; i < horizon; i++ {
					model[e][i] = val
				}
			}
		}
		for _, e := range entities {
			hist := s.History(e, "x")
			for i := 1; i < len(hist); i++ {
				if hist[i-1].Validity.Overlaps(hist[i].Validity) {
					t.Fatalf("overlapping versions: %v %v", hist[i-1], hist[i])
				}
				if hist[i-1].Validity.Start > hist[i].Validity.Start {
					t.Fatalf("unordered versions")
				}
				if hist[i-1].IsCurrent() {
					t.Fatalf("non-last open version")
				}
			}
			for ti := temporal.Instant(0); ti < horizon; ti += 7 {
				f, ok := s.Find(e, "x", AsOfValidTime(ti))
				want := model[e][ti]
				if (want == -1) == ok {
					t.Fatalf("trial %d: validAt(%s,%d): ok=%v want value %d", trial, e, ti, ok, want)
				}
				if ok && f.Value.MustInt() != want {
					t.Fatalf("trial %d: validAt(%s,%d)=%d want %d", trial, e, ti, f.Value.MustInt(), want)
				}
			}
		}
	}
}

func TestStatsAttributes(t *testing.T) {
	s := NewStore()
	s.Replace("e1", "a", element.Int(1), 0)
	s.Replace("e2", "a", element.Int(1), 0)
	s.Replace("e1", "b", element.Int(1), 0)
	st := s.Stats()
	if st.Keys != 3 || st.Attributes != 2 || st.Current != 3 || st.Versions != 3 {
		t.Fatalf("stats: %+v", st)
	}
}
