package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/server"
)

// writeDir writes ann's position history into a fresh durable directory
// and closes the engine: "hall" from 10, then "lab" from 35.
func writeDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	e := core.New(core.WithDurableDir(dir))
	if err := e.Store().Replace("ann", "position", element.String("hall"), 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Store().Replace("ann", "position", element.String("lab"), 35); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// serveDir runs the command on dir over a loopback listener. stop
// cancels it and returns run's result.
func serveDir(t *testing.T, dir string) (url string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, dir, ln) }()
	return "http://" + ln.Addr().String(), func() error { cancel(); return <-done }
}

// TestRunServesAndReleasesDir serves a durable directory, answers /fact,
// shuts down on context cancellation, and leaves the directory lock
// released: a second engine opens the same directory in-process.
func TestRunServesAndReleasesDir(t *testing.T) {
	dir := writeDir(t)
	url, stop := serveDir(t, dir)

	resp, err := http.Get(url + "/fact?entity=ann&attr=position&at=40")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Found bool `json:"found"`
		Fact  struct {
			Value struct {
				String string `json:"string"`
			} `json:"value"`
		} `json:"fact"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !body.Found || body.Fact.Value.String != "lab" {
		t.Fatalf("/fact: status %d body %+v", resp.StatusCode, body)
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	e2 := core.New(core.WithDurableDir(dir))
	if err := e2.Health().DurableErr; err != nil {
		t.Fatalf("directory still locked after shutdown: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAnchorsNowAtHorizon pins now() in served queries at the
// recovered store's horizon, one past its latest validity start (35),
// not at the engine watermark, which nothing advances: one tick before
// now() sees "lab", two ticks before sees "hall".
func TestRunAnchorsNowAtHorizon(t *testing.T) {
	url, stop := serveDir(t, writeDir(t))
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c := server.NewClient(url)
	for _, tc := range []struct{ q, want string }{
		{"SELECT value FROM position ASOF now() - 1ns", "lab"},
		{"SELECT value FROM position ASOF now() - 2ns", "hall"},
	} {
		res, err := c.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].MustString() != tc.want {
			t.Fatalf("%s: %v, want %q", tc.q, res.Rows, tc.want)
		}
	}
}
