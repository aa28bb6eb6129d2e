package server

// Overload-protection and health-surface tests: the admission gate
// (429 + Retry-After before any work), per-request deadlines (504),
// the liveness/readiness split, and the degraded-durability warning
// and counters — named to ride in the CI chaos job.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/vfs"
)

// TestOverloadAdmissionGateSheds: with the gate at capacity, /query and
// /fact shed immediately with 429 + Retry-After, /readyz flips to 503,
// and the shed counter surfaces in /stats. Releasing the slot restores
// readiness.
func TestOverloadAdmissionGateSheds(t *testing.T) {
	st := state.NewStore()
	st.Replace("ann", "position", element.String("hall"), 10)
	s := New(st, nil)
	s.MaxInFlight = 1

	// Occupy the single slot as an in-flight request would.
	release, ok := s.admit(httptest.NewRecorder())
	if !ok {
		t.Fatalf("first admission must pass")
	}

	for _, target := range []struct{ method, url, body string }{
		{http.MethodPost, "/query", `{"query":"SELECT entity FROM position"}`},
		{http.MethodGet, "/fact?entity=ann&attr=position", ""},
	} {
		req := httptest.NewRequest(target.method, target.url, strings.NewReader(target.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s at capacity: want 429, got %d", target.url, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s shed response must carry Retry-After", target.url)
		}
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /readyz: want 503, got %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	// /stats mixes scalar counters with array-valued rows
	// (segments_per_level), so decode just the fields under test.
	var stats struct {
		Shed     int `json:"shed_requests"`
		Inflight int `json:"inflight_requests"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Shed != 2 || stats.Inflight != 1 {
		t.Fatalf("stats counters: shed=%d inflight=%d", stats.Shed, stats.Inflight)
	}

	// /healthz is liveness: it stays 200 throughout the overload.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz must stay alive under overload, got %d", rec.Code)
	}

	release()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("drained /readyz: want 200, got %d", rec.Code)
	}
}

// TestOverloadRequestDeadline: a request that outlives RequestTimeout
// aborts with 504 instead of running the scan to completion.
func TestOverloadRequestDeadline(t *testing.T) {
	st := state.NewStore()
	st.Replace("ann", "position", element.String("hall"), 10)
	s := New(st, nil)
	s.RequestTimeout = time.Nanosecond // expired before execution starts

	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"query":"SELECT entity FROM position"}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired query: want 504, got %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fact?entity=ann&attr=position", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired fact read: want 504, got %d", rec.Code)
	}

	// A generous deadline serves normally.
	s.RequestTimeout = time.Minute
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"query":"SELECT entity FROM position"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("in-deadline query: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDegradedReadyzWarnsAndStats: a degraded durable layer keeps the
// replica ready — traffic still flows — but /readyz carries the warning
// and /stats reports degraded=1; after Resume both clear.
func TestDegradedReadyzWarnsAndStats(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "seg-*.seg", Count: 1,
		Err: vfs.Permanent(errors.New("medium error"))})
	e := core.New(core.WithDurableDir(t.TempDir(),
		segment.WithFS(ffs), segment.WithFlushEvery(1),
		segment.WithRetryPolicy(segment.RetryPolicy{MaxRetries: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})))
	defer e.Close()
	s := NewForEngine(e, nil)
	defer s.Close()

	d := e.Durable()
	if d == nil {
		t.Fatalf("engine must have a durable layer")
	}
	if err := d.Mem().Replace("ann", "position", element.String("hall"), 10); err != nil {
		t.Fatalf("put: %v", err)
	}
	d.Pulse(d.Mem().Snapshot().At())
	deadline := time.Now().Add(5 * time.Second)
	for d.Degraded() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for the store to degrade")
		}
		time.Sleep(time.Millisecond)
	}

	readiness := func() (int, map[string]any) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var body map[string]any
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return rec.Code, body
	}
	code, body := readiness()
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("degraded replica must stay ready: code=%d body=%v", code, body)
	}
	if w, _ := body["warning"].(string); !strings.Contains(w, "degraded") {
		t.Fatalf("degraded /readyz must warn, got %v", body)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Degraded int `json:"degraded"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Degraded != 1 {
		t.Fatalf("stats must report degraded=1, got %d", stats.Degraded)
	}

	// The fault script is exhausted: Resume heals, warning clears.
	if err := d.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if code, body = readiness(); code != http.StatusOK || body["warning"] != nil {
		t.Fatalf("healed /readyz must drop the warning: code=%d body=%v", code, body)
	}

	if hc := e.Health(); !hc.Healthy() {
		t.Fatalf("engine health must be clean after resume: %+v", hc)
	}
}

// TestChaosQueryColdFrame500: a /query whose scan reads an evicted
// lineage's frame and finds it failing its checksum answers 500 — the
// store failed, not the query — instead of 200 with the row missing,
// also when the scan reaches the frame through a resolution kept from
// before the corruption.
func TestChaosQueryColdFrame500(t *testing.T) {
	dir := t.TempDir()
	d, err := segment.Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	if err := d.Mem().Replace("ann", "position", element.String("hall"), 10); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := d.EvictToBudget(0); n != 1 {
		t.Fatalf("evicted %d lineages, want 1", n)
	}
	s := New(d.Mem(), nil)
	query := func() int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"query":"SELECT entity FROM position"}`)))
		return rec.Code
	}
	if code := query(); code != http.StatusOK {
		t.Fatalf("intact cold frame: %d, want 200", code)
	}
	// The query kept its scope's cold-key resolution: the corrupt frame
	// is reached through it.
	warm := d.Mem().ColdResolutions()
	if len(warm) == 0 || !warm[0].Current() {
		t.Fatalf("no current resolution kept after the query: %v", warm)
	}
	// The segment's only lineage frame follows the 4-byte file magic;
	// its last payload byte is a value byte.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	img, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	img[4+frame.HeaderLen+binary.LittleEndian.Uint32(img[4:])-1] ^= 0xFF
	if err := os.WriteFile(segs[0], img, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := query(); code != http.StatusInternalServerError {
		t.Fatalf("corrupt cold frame: %d, want 500", code)
	}
	if kept := d.Mem().ColdResolutions(); len(kept) != len(warm) || !slices.Contains(warm, kept[0]) {
		t.Fatalf("the failing query resolved afresh: %v kept, %v before", kept, warm)
	}
}
