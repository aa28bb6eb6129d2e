package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/element"
)

// TestRunServesAndReleasesDir serves a durable directory, answers /fact,
// shuts down on context cancellation, and leaves the directory lock
// released: a second engine opens the same directory in-process.
func TestRunServesAndReleasesDir(t *testing.T) {
	dir := t.TempDir()
	e := core.New(core.WithDurableDir(dir))
	if err := e.Store().Replace("ann", "position", element.String("lab"), 35); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, dir, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/fact?entity=ann&attr=position&at=40")
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

	cancel()
	if err := <-done; err != nil {
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
