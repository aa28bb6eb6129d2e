// Package server exposes a state repository over HTTP, realizing the
// interoperability benefit of §3.2: "queryable state can promote
// interoperability, since stream processing systems can expose their
// state and query the state of other systems."
//
// The service is deliberately small and schemaless: one query endpoint
// accepting the temporal query language of internal/query, plus point
// lookup and stats endpoints. A matching Client provides programmatic
// access, and RemoteStore adapts a remote service to the same lookup
// shape engines use locally — one engine's gates can therefore consult
// another engine's state.
//
// Endpoints:
//
//	POST /query        {"query": "SELECT ..."}          → {"columns": [...], "rows": [[...]]}
//	POST /query?explain=1 (same body)                   → physical plan JSON, no execution
//	GET  /fact?entity=E&attr=A[&at=NANOS][&systime=NANOS] → {"found": true, "fact": {...}}
//	GET  /stats                                         → {"keys": n, "versions": n, ...}
//	GET  /subscribe?entity=E&attr=A&stream=S&query=Q    → Server-Sent Events push stream
//	GET  /healthz                                      → 200 ok (liveness: the process serves HTTP)
//	GET  /readyz                                        → readiness: 503 when overloaded, 200 with a
//	                                                      warning while durability is degraded
//
// The server protects itself under load: MaxInFlight bounds admitted
// /query and /fact requests (excess requests are shed with 429 and
// Retry-After before any snapshot pin), RequestTimeout bounds each
// request's execution (exceeding it aborts the scan and returns 504),
// and StreamWriteTimeout bounds every SSE write so stalled consumers
// release their goroutines.
//
// Servers built with NewForEngine additionally push state: clients
// subscribe with a filter (or a continuous SELECT) and receive one JSON
// delivery per watermark whose batch touched it, with bounded queues and
// drop-and-resync semantics for slow consumers (see internal/subscribe).
//
// Both read endpoints are bitemporal: `at` selects by valid time and
// `systime` pins the belief (transaction time) — the wire form of
// state.AsOfTransactionTime, so remote callers can ask "what did this
// store believe at tt" and retroactive corrections recorded after tt
// stay invisible. Queries may equivalently use the SYSTEM TIME ASOF
// clause. Queries are served from a snapshot handle pinned on arrival —
// one consistent lock-free cut, so remote analytical reads never stall
// the engine ingesting into the same store — while point reads resolve
// against the atomically published head of their single lineage, which
// needs no cross-shard pin.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/subscribe"
	"repro/internal/temporal"
)

// Server serves one state repository over HTTP.
type Server struct {
	store    *state.Store
	reasoner *reason.Reasoner // optional: enables WITH INFERENCE remotely
	// engine and broker are set by NewForEngine; they enable the
	// /subscribe endpoint and the engine-level stats fields.
	engine *core.Engine
	broker *subscribe.Broker
	// NowFunc anchors now() in received queries; defaults to the largest
	// validity start in the store.
	NowFunc func() temporal.Instant
	// MaxInFlight bounds concurrently admitted /query and /fact
	// requests. Excess requests are shed immediately with 429 and a
	// Retry-After header — before any snapshot pin or scan, so an
	// overloaded server degrades by refusing work, not by queueing it.
	// Zero (the default) means unbounded. Set before serving.
	MaxInFlight int
	// RequestTimeout bounds one /query or /fact request. The deadline
	// flows through query execution as a context: a scan that outlives
	// it aborts between row batches and the client receives 504. Zero
	// (the default) means no server-imposed deadline. Set before serving.
	RequestTimeout time.Duration
	// StreamWriteTimeout bounds each write of the SSE subscription
	// stream, so a dead or stalled client releases its subscriber
	// goroutine instead of pinning it forever. Defaults to 30s; zero
	// disables the deadline. Set before serving.
	StreamWriteTimeout time.Duration
	// inflight/shed drive the admission gate and its /stats counters.
	inflight metrics.Gauge
	shed     metrics.Counter
	mux      *http.ServeMux
	// plans caches prepared queries by source text, so repeated /query
	// requests skip parsing and planning.
	plans *planCache
}

// New builds a server over the store. The reasoner may be nil.
func New(store *state.Store, reasoner *reason.Reasoner) *Server {
	s := &Server{
		store:              store,
		reasoner:           reasoner,
		plans:              newPlanCache(defaultPlanCacheSize),
		StreamWriteTimeout: 30 * time.Second,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/fact", s.handleFact)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/subscribe", s.handleSubscribe)
	// /healthz is pure liveness: the process is up and serving HTTP.
	// Readiness — should this replica receive traffic — is /readyz.
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", s.handleReady)
	return s
}

// admit runs the admission gate for one request. When the in-flight
// bound is exceeded it sheds the request — 429 with Retry-After, before
// any snapshot pin or scan — and returns ok=false. Otherwise the caller
// must defer release.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	s.inflight.Add(1)
	if s.MaxInFlight > 0 && s.inflight.Value() > int64(s.MaxInFlight) {
		s.inflight.Add(-1)
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
		return nil, false
	}
	return func() { s.inflight.Add(-1) }, true
}

// requestCtx derives the request context, applying RequestTimeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.RequestTimeout)
}

// handleReady is the readiness probe. Overload (admission gate at
// capacity) is not-ready: the replica should be pulled from rotation
// until load drains. Degraded durability is ready-with-warning: the
// engine still ingests and serves every read, resident or cold, so
// traffic keeps flowing while operators act on the warning.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	type readiness struct {
		Ready   bool   `json:"ready"`
		Reason  string `json:"reason,omitempty"`
		Warning string `json:"warning,omitempty"`
	}
	if s.MaxInFlight > 0 && s.inflight.Value() >= int64(s.MaxInFlight) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(readiness{Ready: false, Reason: "overloaded"})
		return
	}
	resp := readiness{Ready: true}
	if s.engine != nil {
		if h := s.engine.Health(); !h.Healthy() {
			switch {
			case h.Degraded != nil:
				resp.Warning = "durability degraded: " + h.Degraded.Cause.Error()
			case h.DurableErr != nil:
				resp.Warning = "durable layer unavailable: " + h.DurableErr.Error()
			}
		}
	}
	writeJSON(w, resp)
}

// NewForEngine builds a server over a live engine: everything New
// provides, plus push subscriptions (/subscribe, over SSE) fed by a
// broker tapping the engine's watermark batches, engine-level stats
// fields, and now() anchored at the engine watermark. Register before
// ingestion starts, like any watermark hook.
func NewForEngine(e *core.Engine, reasoner *reason.Reasoner) *Server {
	s := New(e.Store(), reasoner)
	s.engine = e
	s.broker = subscribe.NewBroker(e)
	s.NowFunc = e.Watermark
	return s
}

// Broker exposes the subscription broker (nil unless NewForEngine), for
// in-process subscribers and metrics scraping.
func (s *Server) Broker() *subscribe.Broker { return s.broker }

// Close releases the subscription broker, closing every connected
// subscriber. The store and engine are not touched.
func (s *Server) Close() {
	if s.broker != nil {
		s.broker.Close()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) now() temporal.Instant {
	if s.NowFunc != nil {
		return s.NowFunc()
	}
	return StoreHorizon(s.store)
}

// StoreHorizon is the default now() of a server: the instant just past
// the latest validity start among the store's current facts. It scans
// every current fact, so a server over a store nothing writes to should
// compute it once and pin it as NowFunc.
func StoreHorizon(st *state.Store) temporal.Instant {
	var horizon temporal.Instant
	for _, f := range st.List() {
		if f.Validity.Start > horizon {
			horizon = f.Validity.Start
		}
	}
	return horizon + 1
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	explain := false
	if raw := r.URL.Query().Get("explain"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			http.Error(w, "bad explain: "+err.Error(), http.StatusBadRequest)
			return
		}
		explain = v
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Prepared handles are cached by source text: a repeated query skips
	// parsing and planning entirely.
	p, err := s.plans.get(req.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if explain {
		// The plan is static — no store access, no snapshot pin.
		writeJSON(w, p.Explain())
		return
	}
	// Pin one consistent cut for the whole query: the evaluation takes no
	// shard locks, so a slow remote query cannot stall local writers.
	res, err := p.Exec(query.ExecEnv{Store: s.store.Snapshot(), Reasoner: s.reasoner, Now: s.now(), Ctx: ctx})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
			return
		}
		if errors.Is(err, state.ErrColdFrame) {
			// The store failed, not the query.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	bp := getBuf()
	defer putBuf(bp)
	b, err := appendResult((*bp)[:0], res)
	*bp = append(b, '\n') // the pool keeps the grown buffer
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*bp)))
	_, _ = w.Write(*bp) // a failed write means the client is gone
}

// wireFact is the JSON encoding of a fact. Recorded and Superseded carry
// the transaction-time interval, so remote callers can audit when the
// version entered the belief and when (if ever) a correction revised it.
type wireFact struct {
	Entity     string    `json:"entity"`
	Attribute  string    `json:"attribute"`
	Value      wireValue `json:"value"`
	Start      int64     `json:"start"`
	End        int64     `json:"end"`
	Recorded   int64     `json:"recorded"`
	Superseded int64     `json:"superseded"`
	Derived    bool      `json:"derived,omitempty"`
	Source     string    `json:"source,omitempty"`
}

type factResponse struct {
	Found bool      `json:"found"`
	Fact  *wireFact `json:"fact,omitempty"`
}

// instantParam parses an optional int64 nanosecond query parameter.
func instantParam(r *http.Request, name string) (temporal.Instant, bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, false, nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s: %w", name, err)
	}
	return temporal.Instant(n), true, nil
}

func (s *Server) handleFact(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	entity := r.URL.Query().Get("entity")
	attr := r.URL.Query().Get("attr")
	if entity == "" || attr == "" {
		http.Error(w, "entity and attr are required", http.StatusBadRequest)
		return
	}
	at, hasAt, err := instantParam(r, "at")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	systime, hasSystime, err := instantParam(r, "systime")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var opts []state.ReadOpt
	if hasAt {
		opts = append(opts, state.AsOfValidTime(at))
	}
	if hasSystime {
		opts = append(opts, state.AsOfTransactionTime(systime))
	}
	// The point read itself is fast; the deadline check here covers a
	// request that spent its whole budget queued behind the gate.
	if err := ctx.Err(); err != nil {
		http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	// A point read resolves against one atomically published head: it
	// needs no cross-shard snapshot pin, so skip the barrier Snapshot()
	// would run.
	f, found := s.store.Find(entity, attr, opts...)
	resp := factResponse{Found: found}
	if found {
		wf := toWireFact(f)
		resp.Fact = &wf
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	out := map[string]any{
		"keys":       st.Keys,
		"versions":   st.Versions,
		"current":    st.Current,
		"attributes": st.Attributes,
		"records":    st.Records,
		"superseded": st.Superseded,
		"shards":     st.Shards,
		// Prepared-query cache effectiveness: misses planned vs hits served.
		"queries_prepared": int(s.plans.prepared.Load()),
		"plan_cache_hits":  int(s.plans.hits.Load()),
		// Overload-protection counters: requests currently admitted and
		// requests shed at the gate (429) since start.
		"inflight_requests": int(s.inflight.Value()),
		"shed_requests":     int(s.shed.Value()),
	}
	if s.engine != nil {
		out["emitted"] = len(s.engine.Emitted())
		out["watermark"] = int(s.engine.Watermark())
		if s.broker != nil {
			out["subscribers"] = s.broker.Metrics().Subscribers
		}
		// Durability posture: degraded flag plus the flush-retry count,
		// mirroring segment.Store.Info for remote operators.
		h := s.engine.Health()
		degraded := 0
		if h.Degraded != nil {
			degraded = 1
		}
		out["degraded"] = degraded
		if d := s.engine.Durable(); d != nil {
			info := d.Info()
			out["flush_retries"] = int(info.FlushRetries)
			// Compaction and segmented-WAL posture: segment count per
			// level (index 0 = freshly flushed), bytes reclaimed by
			// merges so far, and the WAL chain's live/dropped file
			// counts — the runbook reads these to tell "compaction is
			// keeping up" from "the chain is growing unbounded".
			perLevel := info.SegmentsPerLevel
			if perLevel == nil {
				perLevel = []int{} // encode an empty catalog as [], not null
			}
			out["segments_per_level"] = perLevel
			out["merge_bytes_reclaimed"] = int(info.MergeBytesReclaimed)
			out["wal_files"] = info.WALFiles
			out["dropped_wal_files"] = info.DroppedWALFiles
			// Residency posture: how much of the state lives in RAM vs
			// durable frames, and how many frames scans have pulled cold —
			// the out-of-core runbook reads these to tell "the budget is
			// holding" from "the working set is thrashing".
			out["resident_lineages"] = info.ResidentLineages
			out["evicted_lineages"] = info.EvictedLineages
			out["cold_scan_frames"] = int(info.ScanFrames)
			out["scan_frames_pruned"] = int(info.ScanFramesPruned)
		}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// A value the wire codec refuses (NaN, ±Inf) reports as
		// encoding/json does, not wrapped in the MarshalJSON call.
		var uv *json.UnsupportedValueError
		if errors.As(err, &uv) {
			err = uv
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
