package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/temporal"
)

func testService(t *testing.T) (*state.Store, *Client, func()) {
	t.Helper()
	st := state.NewStore()
	st.Replace("ann", "position", element.String("hall"), 10)
	st.Replace("ann", "position", element.String("lab"), 50)
	st.Replace("bob", "position", element.String("hall"), 20)
	srv := httptest.NewServer(New(st, nil))
	return st, NewClient(srv.URL), srv.Close
}

func TestQueryEndToEnd(t *testing.T) {
	_, client, done := testService(t)
	defer done()

	res, err := client.Query("SELECT entity, value FROM position ORDER BY entity")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].MustString() != "lab" {
		t.Fatalf("remote query: %v", res.Rows)
	}
	// Historical query across the wire.
	res, err = client.Query("SELECT value FROM position ASOF 30 WHERE entity = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("remote as-of: %v", res.Rows)
	}
}

func TestQueryErrorsPropagate(t *testing.T) {
	_, client, done := testService(t)
	defer done()
	if _, err := client.Query("SELECT nosuch FROM position"); err == nil {
		t.Fatal("bad query should error")
	} else if !strings.Contains(err.Error(), "422") {
		t.Fatalf("want 422 in error, got %v", err)
	}
}

func TestFactEndpoints(t *testing.T) {
	_, client, done := testService(t)
	defer done()

	f, ok, err := client.Current("ann", "position")
	if err != nil || !ok || f.Value.MustString() != "lab" {
		t.Fatalf("current: %v %v %v", f, ok, err)
	}
	if f.Validity.Start != 50 || !f.Validity.IsOpen() {
		t.Fatalf("validity round trip: %v", f.Validity)
	}
	f, ok, err = client.fact("ann", "position", "&at=30")
	if err != nil || !ok || f.Value.MustString() != "hall" {
		t.Fatalf("valid-at: %v %v %v", f, ok, err)
	}
	_, ok, err = client.Current("zoe", "position")
	if err != nil || ok {
		t.Fatalf("absent: %v %v", ok, err)
	}
}

// TestFactNamesEscaped: names that are not URL-safe reach /fact intact
// through every point-read shape, rather than coming back not found or as
// a 400.
func TestFactNamesEscaped(t *testing.T) {
	names := []string{"a&b", "c++", "p%20q", "x y", "h#1"}
	st := state.NewStore()
	for i, n := range names {
		if err := st.Put(n, "position", element.Int(int64(i)),
			state.WithValidTime(10), state.WithTransactionTime(10)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(New(st, nil))
	defer srv.Close()
	c := NewClient(srv.URL)
	for i, n := range names {
		for _, read := range []struct {
			method string
			get    func() (*element.Fact, bool, error)
		}{
			{"Current", func() (*element.Fact, bool, error) { return c.Current(n, "position") }},
			{"at", func() (*element.Fact, bool, error) { return c.fact(n, "position", "&at=15") }},
			{"at+systime", func() (*element.Fact, bool, error) { return c.fact(n, "position", "&at=15&systime=20") }},
			{"systime", func() (*element.Fact, bool, error) { return c.fact(n, "position", "&systime=20") }},
		} {
			f, ok, err := read.get()
			if err != nil || !ok || f.Entity != n || f.Value.MustInt() != int64(i) {
				t.Errorf("%s(%q): %v found=%v err=%v", read.method, n, f, ok, err)
			}
		}
	}
}

func TestStats(t *testing.T) {
	_, client, done := testService(t)
	defer done()
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["keys"] != 2 || stats["versions"] != 3 || stats["current"] != 2 {
		t.Fatalf("stats: %v", stats)
	}
}

func TestRemoteStateLookup(t *testing.T) {
	_, client, done := testService(t)
	defer done()
	rs := &RemoteState{Client: client}
	v, ok := rs.Lookup("position", element.String("bob"))
	if !ok || v.MustString() != "hall" {
		t.Fatalf("remote lookup: %v %v", v, ok)
	}
	if _, ok := rs.Lookup("position", element.String("zoe")); ok {
		t.Fatal("absent remote lookup")
	}
}

func TestInferenceOverHTTP(t *testing.T) {
	st := state.NewStore()
	ont := reason.NewOntology()
	if err := ont.SubClassOf("novel", "books"); err != nil {
		t.Fatal(err)
	}
	r := reason.NewReasoner(st, ont)
	st.Replace("p1", "type", element.String("novel"), 0)
	srv := httptest.NewServer(New(st, r))
	defer srv.Close()
	client := NewClient(srv.URL)
	res, err := client.Query("SELECT entity FROM type WHERE value = 'books' WITH INFERENCE")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "p1" {
		t.Fatalf("remote inference: %v", res.Rows)
	}
}

func TestBadRequests(t *testing.T) {
	st := state.NewStore()
	srv := httptest.NewServer(New(st, nil))
	defer srv.Close()

	// GET on /query.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %d", resp.StatusCode)
	}
	// Malformed body.
	resp, err = http.Post(srv.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", resp.StatusCode)
	}
	// Missing fact params.
	resp, err = http.Get(srv.URL + "/fact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing params: %d", resp.StatusCode)
	}
	// Bad at param.
	resp, err = http.Get(srv.URL + "/fact?entity=a&attr=b&at=xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad at: %d", resp.StatusCode)
	}
	// Health.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	vals := []element.Value{
		element.Null,
		element.Bool(true),
		element.Int(-42),
		element.Float(2.5),
		element.String("héllo"),
		element.Time(temporal.Instant(123456789)),
	}
	for _, v := range vals {
		b, err := wireValue(v).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var w wireValue
		if err := w.UnmarshalJSON(b); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		got := element.Value(w)
		if !got.Equal(v) && !(got.IsNull() && v.IsNull()) {
			t.Errorf("round trip %s: got %s", v, got)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("kind %s: got %s", v.Kind(), got.Kind())
		}
	}
}

func TestNowAnchorsCurrentQueries(t *testing.T) {
	st := state.NewStore()
	st.Replace("e", "a", element.Int(1), 100)
	srv := httptest.NewServer(New(st, nil))
	defer srv.Close()
	res, err := NewClient(srv.URL).Query("SELECT value FROM a WHERE entity = 'e'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("default now should see latest state: %v", res.Rows)
	}
}

// TestTransactionTimeOverTheWire covers the remote SYSTEM TIME surface:
// the /fact systime parameter and the SYSTEM TIME ASOF query clause must
// both serve past beliefs — a retroactive correction recorded later stays
// invisible at the earlier belief instant — from a snapshot handle pinned
// per request.
func TestTransactionTimeOverTheWire(t *testing.T) {
	st := state.NewStore()
	if err := st.Put("ann", "position", element.String("hall"),
		state.WithValidTime(10), state.WithTransactionTime(10)); err != nil {
		t.Fatal(err)
	}
	// Retroactive correction recorded at 50: ann was in the vault over
	// [12, 18) all along.
	if err := st.Put("ann", "position", element.String("vault"),
		state.WithValidTime(12), state.WithEndValidTime(18),
		state.WithTransactionTime(50)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(st, nil))
	defer srv.Close()
	client := NewClient(srv.URL)

	// Current belief about valid time 15: the correction.
	f, ok, err := client.fact("ann", "position", "&at=15")
	if err != nil || !ok || f.Value.MustString() != "vault" {
		t.Fatalf("current belief: %v %v %v", f, ok, err)
	}
	// Belief at transaction time 30 about valid time 15: pre-correction.
	f, ok, err = client.fact("ann", "position", "&at=15&systime=30")
	if err != nil || !ok || f.Value.MustString() != "hall" {
		t.Fatalf("belief-at-30: %v %v %v", f, ok, err)
	}
	// The belief interval comes back as the belief at 30 knew it: the
	// supersession recorded at 50 was not yet part of that cut, so the
	// record is open (pinned reads are self-contained and repeatable).
	if f.RecordedAt != 10 || f.SupersededAt != temporal.Forever {
		t.Fatalf("wire fact transaction-time interval: [%d, %d)", f.RecordedAt, f.SupersededAt)
	}
	// Open version as believed at 30.
	f, ok, err = client.fact("ann", "position", "&systime=30")
	if err != nil || !ok || f.Value.MustString() != "hall" {
		t.Fatalf("current-as-of-30: %v %v %v", f, ok, err)
	}
	// Belief before anything was recorded.
	if _, ok, err = client.fact("ann", "position", "&systime=5"); err != nil || ok {
		t.Fatalf("belief-at-5 should be empty, got found=%v err=%v", ok, err)
	}
	// The composable query clause over the wire agrees.
	res, err := client.Query("SELECT value FROM position ASOF 15 SYSTEM TIME ASOF 30")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("SYSTEM TIME query: %v %v", res, err)
	}
	// Malformed systime is a 400, not a silent current-belief read.
	resp, err := http.Get(srv.URL + "/fact?entity=ann&attr=position&systime=nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad systime: status %d", resp.StatusCode)
	}
}
