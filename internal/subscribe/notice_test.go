package subscribe

// Durability-transition Notice fan-out: named to ride in the CI chaos
// job alongside the segment chaos suite.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/state/segment"
	"repro/internal/vfs"
)

// TestDegradeNoticeDelivery: a durable engine degrading and resuming
// pushes one Notice delivery per transition to every subscriber, with
// the cause (then the recovery) in the Note.
func TestDegradeNoticeDelivery(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Path: "seg-*.seg", Count: 1,
		Err: vfs.Permanent(errors.New("medium error"))})
	e := testEngine(t, core.WithDurableDir(t.TempDir(),
		segment.WithFS(ffs), segment.WithFlushEvery(1),
		segment.WithRetryPolicy(segment.RetryPolicy{MaxRetries: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})))
	defer e.Close()
	b := NewBroker(e)
	defer b.Close()
	sub, err := b.Subscribe(Filter{Changes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	d := e.Durable()
	if err := d.Mem().Put("ann", "position", element.String("hall")); err != nil {
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

	got := recvTimeout(t, sub)
	if got.Kind != Notice || !strings.Contains(got.Note, "degraded") {
		t.Fatalf("want a degraded Notice, got kind=%v note=%q", got.Kind, got.Note)
	}
	if got.Kind.String() != "notice" {
		t.Fatalf("Notice kind must stringify for the wire, got %q", got.Kind.String())
	}

	if err := d.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got = recvTimeout(t, sub)
	if got.Kind != Notice || !strings.Contains(got.Note, "resumed") {
		t.Fatalf("want a resumed Notice, got kind=%v note=%q", got.Kind, got.Note)
	}
}
