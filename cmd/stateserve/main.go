// Command stateserve opens a durable state directory (written by
// cmd/statestream -dir or any engine using core.WithDurableDir) and
// exposes the recovered repository over HTTP — the §3.2
// interoperability scenario: "stream processing systems can expose their
// state and query the state of other systems."
//
// Usage:
//
//	stateserve -dir state.d [-addr :8080]
//
// Then, from anywhere:
//
//	curl -s -X POST localhost:8080/query \
//	     -d '{"query":"SELECT entity, value FROM position"}'
//	curl -s 'localhost:8080/fact?entity=ann&attr=position&at=35'
//	curl -s localhost:8080/stats
//
// SIGINT or SIGTERM shuts the server down gracefully and closes the
// engine, flushing its state and releasing the directory lock.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/temporal"
)

// HTTP server timeouts. Subscription streams are long-lived, so there is
// no write timeout; the server bounds each stream write itself.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 10 * time.Second
)

func main() {
	var (
		dir  = flag.String("dir", "", "durable state directory to serve (required)")
		addr = flag.String("addr", ":8080", "listen address")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err == nil {
		err = run(ctx, *dir, ln)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stateserve:", err)
		os.Exit(1)
	}
}

// run opens dir and serves it on ln until ctx is done, then shuts the
// HTTP server down and closes the engine.
func run(ctx context.Context, dir string, ln net.Listener) (err error) {
	defer ln.Close()
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	// Opening creates a missing directory; a server should not.
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	e := core.New(core.WithDurableDir(dir))
	defer func() {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}()
	if err := e.Health().DurableErr; err != nil {
		return err
	}
	h := server.NewForEngine(e, nil)
	// Nothing ingests into the served engine, so its watermark stays at
	// the minimum; anchor now() at the store's horizon instead. The
	// store never changes, so the horizon is computed once here rather
	// than by a full scan on every /query.
	horizon := server.StoreHorizon(e.Store())
	h.NowFunc = func() temporal.Instant { return horizon }
	st := e.Store().Stats()
	fmt.Printf("opened %s (%d keys, %d versions); serving on %s\n",
		dir, st.Keys, st.Versions, ln.Addr())

	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	// Closing the broker ends open subscription streams, which Shutdown
	// would otherwise wait out.
	srv.RegisterOnShutdown(h.Close)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
