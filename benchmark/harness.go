package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/server"
	"repro/internal/state/segment"
	"repro/internal/stream"
)

// options are the command line's settings of a pass.
type options struct {
	seed    int64
	seconds float64
	// scale shrinks every element count; 1 is the benchmark of record,
	// the smoke test runs at 1/200.
	scale float64
	// dir is the scratch root for durable directories and out where the
	// traced pass writes its spans, both inside the checkout.
	dir, out string
}

// env is one pass (traced or untraced) over one workload.
type env struct {
	options
	// runDir holds this pass's durable directories, under options.dir.
	runDir string
	// tr and cfs are set in the traced pass only.
	tr  *tracer
	cfs *countFS

	dirs int         // durable directories handed out so far
	st   *setupState // the last set-up: what the timed phase runs on

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string // the first few, for the report
}

// attempt counts n operations tried.
func (x *env) attempt(n int) {
	x.mu.Lock()
	x.attempted += int64(n)
	x.mu.Unlock()
}

// fail counts one failed operation and keeps its description.
func (x *env) fail(format string, args ...any) {
	x.mu.Lock()
	x.failed++
	if len(x.failures) < 8 {
		x.failures = append(x.failures, fmt.Sprintf(format, args...))
	}
	x.mu.Unlock()
}

// scaled shrinks a full-scale count, keeping at least min.
func (x *env) scaled(n, min int) int {
	if v := int(float64(n) * x.scale); v > min {
		return v
	}
	return min
}

// newDir returns a fresh durable directory path under the scratch root.
func (x *env) newDir() string {
	x.dirs++
	return filepath.Join(x.runDir, fmt.Sprintf("d%03d", x.dirs))
}

// newEngine builds the engine of Figure 1 from public constructors only:
// the two rules, one gated processor, parallelism 1, and — for a non-empty
// dir — the durable segment directory with the engine-default flush
// policy. budget > 0 bounds the RAM working set.
func (x *env) newEngine(dir string, budget int64, segOpts ...segment.Option) (*core.Engine, error) {
	opts := []core.Option{core.WithPolicy(core.StateFirst)}
	if dir != "" {
		if x.cfs != nil {
			segOpts = append(segOpts, segment.WithFS(x.cfs))
		}
		opts = append(opts, core.WithDurableDir(dir, segOpts...))
		if budget > 0 {
			opts = append(opts, core.WithResidencyBudget(budget))
		}
	}
	e := core.New(opts...)
	if h := e.Health(); h.DurableErr != nil {
		return nil, fmt.Errorf("open %s: %w", dir, h.DurableErr)
	}
	if err := e.DeployRules(rulesSrc); err != nil {
		return nil, err
	}
	gate, err := lang.ParseExpr(gateSrc)
	if err != nil {
		return nil, err
	}
	if err := e.DeployProcessor(&core.Processor{Name: "hot", Gate: gate}); err != nil {
		return nil, err
	}
	return e, nil
}

// fixture is an engine served over a loopback listener with one query
// client and one subscriber client, each on its own connection.
type fixture struct {
	eng    *core.Engine
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	query  *server.Client
	sub    *server.Client
	conns  []*http.Transport
}

// serve puts eng behind server.NewForEngine on a loopback listener. It
// must run on the driver goroutine between Run calls: NewForEngine
// registers the broker's watermark hook.
func (x *env) serve(eng *core.Engine) (*fixture, error) {
	f := &fixture{eng: eng, srv: server.NewForEngine(eng, nil), served: make(chan struct{})}
	if x.tr != nil {
		eng.OnWatermark(func(wb core.WatermarkBatch) { x.tr.noteHook(int64(wb.Watermark)) })
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, err
	}
	f.hs = &http.Server{Handler: x.tr.middleware(f.srv)}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // returns ErrServerClosed from stop
	}()
	url := "http://" + ln.Addr().String()
	client := func(wrap bool) *server.Client {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		f.conns = append(f.conns, t)
		c := server.NewClient(url)
		c.HTTPClient = &http.Client{Transport: t}
		if wrap && x.tr != nil {
			c.HTTPClient.Transport = opTransport{base: t, tr: x.tr}
		}
		return c
	}
	f.query, f.sub = client(true), client(false)
	return f, nil
}

// stop shuts the listener and the broker down and waits for the serving
// goroutine; the engine stays open.
func (f *fixture) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	f.srv.Close() // ends SSE handlers, so Shutdown does not wait on them
	if err := f.hs.Shutdown(ctx); err != nil {
		_ = f.hs.Close()
	}
	<-f.served
	for _, t := range f.conns {
		t.CloseIdleConnections()
	}
}

// openServing constructs an engine on dir and serves it until the first
// query answers: the span recover_s measures.
func (x *env) openServing(dir string, budget int64) (*fixture, time.Duration, error) {
	start := time.Now()
	root := x.tr.begin(rootRecover, nil)
	defer root.end()
	o := x.tr.begin("core.new", root)
	x.exclusive(o)
	eng, err := x.newEngine(dir, budget)
	x.exclusive(nil)
	o.end()
	if err != nil {
		return nil, 0, err
	}
	f, err := x.serveUntilAnswer(eng, root)
	return f, time.Since(start), err
}

// serveUntilAnswer serves eng and waits for its first answer.
func (x *env) serveUntilAnswer(eng *core.Engine, parent *op) (*fixture, error) {
	f, err := x.serve(eng)
	if err != nil {
		return nil, err
	}
	q := x.tr.begin("client.first_query", parent)
	_, _, err = f.query.Current("s000000", attrName)
	q.end()
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// untraced switches the pass to the plain filesystem with tracing off
// and returns the function that switches back.
func (x *env) untraced() (restore func()) {
	tr, cfs := x.tr, x.cfs
	x.tr, x.cfs = nil, nil
	return func() { x.tr, x.cfs = tr, cfs }
}

// exclusive marks the span during which the driver makes every
// filesystem call itself (an engine opening or closing).
func (x *env) exclusive(o *op) {
	if x.cfs != nil {
		x.cfs.exclusive.Store(o)
	}
}

// crash stops serving and abandons the durable directory exactly as a
// process crash would leave it: no final flush.
func (x *env) crash(f *fixture) {
	f.stop()
	if d := f.eng.Durable(); d != nil {
		o := x.tr.begin("segment.abandon", nil)
		d.Abandon()
		o.end()
	}
}

// closeEngine flushes and closes a durable engine, returning how long
// the final flush took.
func (x *env) closeEngine(e *core.Engine) (time.Duration, error) {
	start := time.Now()
	root := x.tr.begin(rootClose, nil)
	x.exclusive(root)
	err := e.Close()
	x.exclusive(nil)
	root.end()
	return time.Since(start), err
}

// driver runs one micro-batch through the engine on the calling (driver)
// goroutine and returns the time inside the engine. The watermark goes
// through Process on its own so its cost is a span of its own; for
// parallelism 1 that is exactly Run over the whole batch.
func (x *env) runBatch(e *core.Engine, msgs []stream.Message) (time.Duration, error) {
	n := len(msgs) - 1
	root := x.tr.begin(rootBatch, nil)
	start := time.Now()
	o := x.tr.begin("core.run", root)
	x.tr.setDriver(o)
	err := e.Run(msgs[:n])
	o.end()
	if err == nil {
		o = x.tr.begin("core.watermark", root)
		x.tr.setDriver(o)
		err = e.Process(msgs[n])
		o.end()
	}
	d := time.Since(start)
	x.tr.setDriver(nil)
	root.end()
	return d, err
}

func (t *tracer) setDriver(o *op) {
	if t != nil {
		t.driver.Store(o)
	}
}

func (t *tracer) setClient(o *op) {
	if t != nil {
		t.client.Store(o)
	}
}

// removeAll deletes a finished durable directory.
func removeAll(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir)
	}
}
