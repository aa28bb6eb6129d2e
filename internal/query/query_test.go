package query

import (
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/reason"
	"repro/internal/state"
)

func populated() *state.Store {
	s := state.NewStore()
	s.Replace("ann", "position", element.String("hall"), 0)
	s.Replace("ann", "position", element.String("lab"), 50)
	s.Replace("bob", "position", element.String("hall"), 10)
	s.Replace("cat", "position", element.String("lab"), 20)
	s.Delete("cat", "position", state.WithValidTime(60), state.WithTransactionTime(60))
	s.Replace("ann", "badge", element.Int(7), 0)
	return s
}

func exec() *Executor { return &Executor{Store: populated(), Now: 100} }

func run(t *testing.T, src string) *Result {
	t.Helper()
	res, err := exec().Run(src)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return res
}

func TestSelectCurrent(t *testing.T) {
	res := run(t, "SELECT entity, value FROM position")
	if len(res.Rows) != 2 { // ann, bob (cat retracted)
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[0] != "entity" || res.Columns[1] != "value" {
		t.Errorf("columns: %v", res.Columns)
	}
	if res.Rows[0][0].MustString() != "ann" || res.Rows[0][1].MustString() != "lab" {
		t.Errorf("row 0: %v", res.Rows[0])
	}
}

func TestSelectStar(t *testing.T) {
	res := run(t, "SELECT * FROM *")
	if len(res.Columns) != 5 {
		t.Fatalf("columns: %v", res.Columns)
	}
	if len(res.Rows) != 3 { // ann position+badge, bob position
		t.Fatalf("rows: %d", len(res.Rows))
	}
}

func TestSelectAsOf(t *testing.T) {
	res := run(t, "SELECT entity, value FROM position ASOF 30")
	if len(res.Rows) != 3 {
		t.Fatalf("as-of rows: %v", res.Rows)
	}
	// ann was in hall at 30.
	if res.Rows[0][1].MustString() != "hall" {
		t.Errorf("ann at 30: %v", res.Rows[0])
	}
	// ASOF with arithmetic on now().
	res = run(t, "SELECT entity FROM position ASOF now() - 70ns")
	if len(res.Rows) != 3 {
		t.Fatalf("as-of now()-70: %v", res.Rows)
	}
}

func TestSelectDuring(t *testing.T) {
	res := run(t, "SELECT entity, value, start, end FROM position DURING 0 TO 20")
	// Versions overlapping [0,20): ann hall, bob hall. (cat starts at 20.)
	if len(res.Rows) != 2 {
		t.Fatalf("during rows: %v", res.Rows)
	}
}

func TestSelectHistory(t *testing.T) {
	res := run(t, "SELECT entity, value FROM position HISTORY")
	if len(res.Rows) != 4 { // ann×2, bob, cat
		t.Fatalf("history rows: %v", res.Rows)
	}
}

func TestWhere(t *testing.T) {
	res := run(t, "SELECT entity FROM position WHERE value = 'lab'")
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "ann" {
		t.Fatalf("where: %v", res.Rows)
	}
	// WHERE can consult other state.
	res = run(t, "SELECT entity FROM position WHERE EXISTS badge(entity)")
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "ann" {
		t.Fatalf("state-condition where: %v", res.Rows)
	}
}

func TestGroupByAndAggregates(t *testing.T) {
	res := run(t, "SELECT value, count(*) FROM position HISTORY GROUP BY value")
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	// hall: ann+bob = 2; lab: ann+cat = 2.
	for _, row := range res.Rows {
		if row[1].MustInt() != 2 {
			t.Errorf("group %v: %v", row[0], row[1])
		}
	}
	res = run(t, "SELECT count(*) FROM position")
	if res.Rows[0][0].MustInt() != 2 {
		t.Fatalf("global count: %v", res.Rows)
	}
	res = run(t, "SELECT min(start), max(end) FROM position HISTORY")
	if len(res.Rows) != 1 {
		t.Fatalf("min/max: %v", res.Rows)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	res := run(t, "SELECT count(*), sum(value), avg(value), min(value) FROM nosuchattr")
	if len(res.Rows) != 1 {
		t.Fatalf("empty global aggregate: %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].MustInt() != 0 || row[1].MustFloat() != 0 || !row[2].IsNull() || !row[3].IsNull() {
		t.Fatalf("empty aggregate values: %v", row)
	}
	// Grouped aggregates over empty input still return no rows.
	res = run(t, "SELECT value, count(*) FROM nosuchattr GROUP BY value")
	if len(res.Rows) != 0 {
		t.Fatalf("empty grouped aggregate: %v", res.Rows)
	}
}

func TestAggregateSumAvgOnBadge(t *testing.T) {
	res := run(t, "SELECT sum(value), avg(value) FROM badge")
	if res.Rows[0][0].MustFloat() != 7 || res.Rows[0][1].MustFloat() != 7 {
		t.Fatalf("sum/avg: %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	res := run(t, "SELECT entity FROM position HISTORY ORDER BY entity DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].MustString() != "cat" {
		t.Fatalf("order/limit: %v", res.Rows)
	}
	res = run(t, "SELECT entity, start FROM position HISTORY ORDER BY start, entity")
	if res.Rows[0][0].MustString() != "ann" {
		t.Fatalf("multi-key order: %v", res.Rows)
	}
}

func TestWithInference(t *testing.T) {
	st := state.NewStore()
	ont := reason.NewOntology()
	if err := ont.SubClassOf("novel", "books"); err != nil {
		t.Fatal(err)
	}
	r := reason.NewReasoner(st, ont)
	st.Replace("p1", "type", element.String("novel"), 0)

	e := &Executor{Store: st, Reasoner: r, Now: 10}
	res, err := e.Run("SELECT entity, value FROM type WHERE value = 'books' WITH INFERENCE")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "p1" {
		t.Fatalf("inferred rows: %v", res.Rows)
	}
	// Without inference the derived type is invisible.
	res, err = e.Run("SELECT entity FROM type WHERE value = 'books'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("base rows: %v", res.Rows)
	}
}

func TestInferenceWithoutReasonerFails(t *testing.T) {
	if _, err := exec().Run("SELECT entity FROM position WITH INFERENCE"); err == nil {
		t.Error("inference without reasoner should fail")
	}
}

func TestInferenceOnHistoryFails(t *testing.T) {
	st := state.NewStore()
	e := &Executor{Store: st, Reasoner: reason.NewReasoner(st, nil), Now: 10}
	if _, err := e.Run("SELECT entity FROM position HISTORY WITH INFERENCE"); err == nil {
		t.Error("inference over history should be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM position",
		"SELECT nosuchcol FROM position",
		"SELECT entity FROM",
		"SELECT entity FROM position ASOF",
		"SELECT entity FROM position DURING 1",
		"SELECT entity FROM position LIMIT 0",
		"SELECT entity FROM position LIMIT -1",
		"SELECT entity FROM position GROUP BY nosuch",
		"SELECT entity, count(*) FROM position",       // entity not grouped
		"SELECT count(entity) FROM position",          // count takes *
		"SELECT sum(*) FROM position",                 // sum needs a column
		"SELECT entity FROM position ORDER BY nosuch", // unknown order key
		"SELECT entity FROM position trailing",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT entity, value FROM position",
		"SELECT entity, value FROM position ASOF 30 WHERE value = 'lab'",
		"SELECT value, count(*) FROM position HISTORY GROUP BY value ORDER BY value DESC LIMIT 5",
		"SELECT entity FROM type WITH INFERENCE",
		"SELECT * FROM * DURING 0 TO 20",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if q2.String() != printed {
			t.Errorf("round trip unstable: %q -> %q", printed, q2.String())
		}
	}
}

func TestResultString(t *testing.T) {
	res := run(t, "SELECT entity, value FROM position")
	s := res.String()
	if !strings.Contains(s, "entity") || !strings.Contains(s, "ann") {
		t.Errorf("result table:\n%s", s)
	}
}

func TestWhereOnTemporalColumns(t *testing.T) {
	res := run(t, "SELECT entity FROM position HISTORY WHERE end - start > 40ns")
	// ann hall [0,50): 50 ✓; bob hall [10,∞): huge ✓; cat [20,60): 40 ✗;
	// ann lab [50,∞) ✓.
	if len(res.Rows) != 3 {
		t.Fatalf("temporal where: %v", res.Rows)
	}
}

// bitemporalStore builds a store with a retroactive correction: position
// writes at tx 0/50, then a correction recorded at tx 80 revising [20,40).
func bitemporalStore() *state.Store {
	s := state.NewStore()
	s.Put("ann", "position", element.String("hall"), state.WithValidTime(0), state.WithTransactionTime(0))
	s.Put("ann", "position", element.String("lab"), state.WithValidTime(50), state.WithTransactionTime(50))
	s.Put("ann", "position", element.String("vault"),
		state.WithValidTime(20), state.WithEndValidTime(40), state.WithTransactionTime(80))
	return s
}

func TestSystemTimeParsePrint(t *testing.T) {
	q, err := Parse("SELECT entity, value FROM position ASOF 1m SYSTEM TIME ASOF 30s")
	if err != nil {
		t.Fatal(err)
	}
	if q.SysTime == nil {
		t.Fatal("SysTime not parsed")
	}
	printed := q.String()
	if !strings.Contains(printed, "SYSTEM TIME ASOF") {
		t.Fatalf("print: %s", printed)
	}
	q2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if q2.String() != printed {
		t.Fatalf("unstable print: %q vs %q", printed, q2.String())
	}
	// SYSTEM TIME composes with every qualifier and with WHERE.
	for _, src := range []string{
		"SELECT entity FROM position SYSTEM TIME ASOF 10",
		"SELECT entity FROM position DURING 0 TO 50 SYSTEM TIME ASOF 10",
		"SELECT entity FROM position HISTORY SYSTEM TIME ASOF 10 WHERE value = 'hall'",
		"SELECT entity FROM * SYSTEM TIME ASOF now() - 5ns ORDER BY entity",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
	// Incomplete clause errors.
	for _, src := range []string{
		"SELECT entity FROM position SYSTEM",
		"SELECT entity FROM position SYSTEM TIME",
		"SELECT entity FROM position SYSTEM TIME ASOF",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse %q should fail", src)
		}
	}
}

func TestSystemTimeExecution(t *testing.T) {
	ex := &Executor{Store: bitemporalStore(), Now: 100}
	// Current belief about vt=30: the correction applies.
	res, err := ex.Run("SELECT value FROM position ASOF 30")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "vault" {
		t.Fatalf("corrected read: %v", res.Rows)
	}
	// The belief held at tx=60 predates the correction.
	res, err = ex.Run("SELECT value FROM position ASOF 30 SYSTEM TIME ASOF 60")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("belief at 60: %v", res.Rows)
	}
	// HISTORY under SYSTEM TIME shows the uncorrected timeline.
	res, err = ex.Run("SELECT value, start, end FROM position HISTORY SYSTEM TIME ASOF 60 ORDER BY start")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].MustString() != "hall" || res.Rows[1][0].MustString() != "lab" {
		t.Fatalf("history at 60: %v", res.Rows)
	}
	// ...and the corrected timeline without it: hall[0,20) vault[20,40) hall[40,50) lab[50,∞).
	res, err = ex.Run("SELECT value FROM position HISTORY ORDER BY start")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("corrected history: %v", res.Rows)
	}
	// DURING composes too: overlap [0,50) at belief 60 is the single
	// uncorrected hall version.
	res, err = ex.Run("SELECT value FROM position DURING 0 TO 50 SYSTEM TIME ASOF 60")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("during at 60: %v", res.Rows)
	}
	// CURRENT under an early belief: before tx 50 no open lab version...
	res, err = ex.Run("SELECT value FROM position SYSTEM TIME ASOF 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("current at belief 10: %v", res.Rows)
	}
}

func TestRecordedSupersededColumns(t *testing.T) {
	ex := &Executor{Store: bitemporalStore(), Now: 100}
	res, err := ex.Run("SELECT value, recorded, superseded FROM position HISTORY ORDER BY recorded, start")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Remnants and the correction were all recorded at tx 80.
	recorded80 := 0
	for _, row := range res.Rows {
		if tt, ok := row[1].AsTime(); ok && tt == 80 {
			recorded80++
		}
	}
	if recorded80 != 3 {
		t.Fatalf("recorded@80 rows: %d (%v)", recorded80, res.Rows)
	}
	// Filtering on transaction-time columns works in WHERE: versions
	// recorded after their validity began are retroactive corrections.
	res, err = ex.Run("SELECT value FROM position HISTORY WHERE recorded > start ORDER BY start")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("where recorded > start: %v", res.Rows)
	}
}
