package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Root span names: one per kind of operation a user waits for. Every
// other span hangs under one of them; filesystem work no driver call is
// waiting for hangs under rootBackground.
const (
	rootBatch      = "batch_ack"
	rootCorrection = "correction"
	rootRecover    = "recover"
	rootClose      = "close"
	rootBackground = "segment.background"
)

// maxStoredSpans bounds the spans kept for the trace file; every span
// still reaches the per-name aggregates, so the per-layer table is exact
// and only the file is a sample.
const maxStoredSpans = 200_000

// rootSampleEvery keeps the full span tree of every Nth root operation
// for the trace file (one micro-batch alone has 512 WAL writes under it).
const rootSampleEvery = 16

// opHeader carries the client span's id to the server middleware, which
// nests the handler span under it.
const opHeader = "X-Bench-Op"

// spanRec is one stored span. Times are nanoseconds since the tracer
// started.
type spanRec struct {
	ID     uint64 `json:"id"`
	Op     uint64 `json:"op"` // id of the root span: shared by one operation's spans
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggKey names the spans of one name under one root kind.
type aggKey struct{ root, name string }

// spanAgg accumulates every span of one aggKey.
type spanAgg struct {
	n           int64
	total, self time.Duration
}

// tracer records spans around the harness's calls into each layer. A
// nil *tracer is tracing off: every method is a no-op, so the untraced
// pass runs the same code with two nil checks per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	roots  atomic.Uint64

	mu     sync.Mutex
	spans  []spanRec
	agg    map[aggKey]*spanAgg
	hookAt map[int64]time.Time // watermark -> OnWatermark hook time

	// driver is the driver goroutine's call in flight; the counting
	// filesystem parents WAL writes under it. client is the query
	// client's request in flight; the middleware parents the handler
	// span under it when the request carries its id.
	driver atomic.Pointer[op]
	client atomic.Pointer[op]

	respBytes, queries atomic.Int64

	// paused switches span recording off for a stretch of a traced pass:
	// the stretch is the untraced baseline trace.overhead_ratio compares
	// the rest of the pass with.
	paused atomic.Bool
}

func (t *tracer) off() bool { return t == nil || t.paused.Load() }

func (t *tracer) pause(on bool) {
	if t != nil {
		t.paused.Store(on)
	}
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[aggKey]*spanAgg{}, hookAt: map[int64]time.Time{}}
}

// op is a span in flight.
type op struct {
	tr       *tracer
	root     string
	name     string
	id       uint64
	opID     uint64
	parent   *op
	start    time.Time
	children atomic.Int64 // ns covered by child spans
	keep     bool
}

// begin opens a span. With a nil parent the span is a root of kind name.
func (t *tracer) begin(name string, parent *op) *op {
	if t.off() {
		return nil
	}
	o := &op{tr: t, name: name, id: t.nextID.Add(1), parent: parent, start: time.Now()}
	if parent == nil {
		o.root, o.opID = name, o.id
		o.keep = t.roots.Add(1)%rootSampleEvery == 1
	} else {
		o.root, o.opID, o.keep = parent.root, parent.opID, parent.keep
	}
	return o
}

// end closes the span and returns its duration.
func (o *op) end() time.Duration {
	if o == nil {
		return 0
	}
	d := time.Since(o.start)
	self := d - time.Duration(o.children.Load())
	var pid uint64
	if o.parent != nil {
		o.parent.children.Add(int64(d))
		pid = o.parent.id
	}
	o.tr.record(o.root, o.name, o.id, o.opID, pid, o.start, d, self, o.keep)
	return d
}

// leaf records a finished childless span under parent; with a nil
// parent it is background work no driver call waited for.
func (t *tracer) leaf(name string, parent *op, start time.Time, d time.Duration) {
	if t.off() {
		return
	}
	id := t.nextID.Add(1)
	if parent == nil {
		t.record(rootBackground, name, id, id, 0, start, d, d, id%rootSampleEvery == 1)
		return
	}
	parent.children.Add(int64(d))
	t.record(parent.root, name, id, parent.opID, parent.id, start, d, d, parent.keep)
}

func (t *tracer) record(root, name string, id, opID, parent uint64, start time.Time, d, self time.Duration, keep bool) {
	if self < 0 {
		self = 0
	}
	key := aggKey{root, name}
	t.mu.Lock()
	a := t.agg[key]
	if a == nil {
		a = &spanAgg{}
		t.agg[key] = a
	}
	a.n++
	a.total += d
	a.self += self
	if keep && len(t.spans) < maxStoredSpans {
		s := start.Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, spanRec{ID: id, Op: opID, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds()})
	}
	t.mu.Unlock()
}

// get returns the aggregate of one span name under one root kind.
func (t *tracer) get(root, name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[aggKey{root, name}]; a != nil {
		return *a
	}
	return spanAgg{}
}

// selfSum returns the summed self time of every span under root and the
// summed duration of the root spans themselves. The two agree when the
// children the harness recorded lie inside their parents.
func (t *tracer) selfSum(root string) (self, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, a := range t.agg {
		if key.root == root {
			self += a.self
		}
	}
	if a := t.agg[aggKey{root, root}]; a != nil {
		total = a.total
	}
	return self, total
}

// noteHook stamps the OnWatermark hook time of a watermark.
func (t *tracer) noteHook(wm int64) {
	if t.off() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.hookAt[wm] = now
	t.mu.Unlock()
}

func (t *tracer) hookTime(wm int64) (time.Time, bool) {
	if t == nil {
		return time.Time{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.hookAt[wm]
	return at, ok
}

// table prints self times per layer, grouped by root kind.
func (t *tracer) table(w io.Writer) {
	t.mu.Lock()
	rows := make(map[aggKey]spanAgg, len(t.agg))
	keys := make([]aggKey, 0, len(t.agg))
	for k, a := range t.agg {
		rows[k] = *a
		keys = append(keys, k)
	}
	t.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].root != keys[j].root {
			return keys[i].root < keys[j].root
		}
		return keys[i].name < keys[j].name
	})
	fmt.Fprintf(w, "  %-44s %10s %12s %12s %7s\n", "root/span", "count", "total_ms", "self_ms", "share")
	for _, k := range keys {
		a := rows[k]
		share := 0.0
		if r := rows[aggKey{k.root, k.root}]; r.total > 0 {
			share = float64(a.self) / float64(r.total)
		}
		fmt.Fprintf(w, "  %-44s %10d %12.3f %12.3f %6.1f%%\n", k.root+"/"+k.name, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6, 100*share)
	}
}

// write stores the sampled spans as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Meta  map[string]any `json:"meta"`
		Spans []spanRec      `json:"spans"`
	}{meta, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// opTransport stamps each request of the query client with the id of
// the client span in flight.
type opTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if o := t.tr.client.Load(); o != nil {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatUint(o.id, 10))
	}
	return t.base.RoundTrip(r)
}

// countingWriter counts response bytes. It forwards Flush and exposes
// Unwrap so the SSE handler's flusher and write deadlines keep working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// middleware wraps the server with one span per /fact and /query
// request, nested under the client span whose id the request carries.
func (t *tracer) middleware(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch r.URL.Path {
		case "/fact":
			name = "server.handle_fact"
		case "/query":
			name = "server.handle_query"
		default:
			next.ServeHTTP(w, r)
			return
		}
		var parent *op
		if c := t.client.Load(); c != nil && r.Header.Get(opHeader) == strconv.FormatUint(c.id, 10) {
			parent = c
		}
		if parent == nil {
			// A request outside any client span (the output check): serve
			// it untraced rather than invent a root for it.
			next.ServeHTTP(w, r)
			return
		}
		o := t.begin(name, parent)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		o.end()
		if name == "server.handle_query" {
			t.respBytes.Add(cw.n)
			t.queries.Add(1)
		}
	})
}
