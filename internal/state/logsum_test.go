package state

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// flipEntityByte corrupts one payload byte of the given marker string
// inside raw — a bit flip that still decodes (string contents are raw
// bytes behind a length prefix), detectable only by the checksum.
func flipEntityByte(t *testing.T, raw []byte, marker string) []byte {
	t.Helper()
	i := bytes.Index(raw, []byte(marker))
	if i < 0 {
		t.Fatalf("marker %q not found in log bytes", marker)
	}
	out := append([]byte(nil), raw...)
	out[i] ^= 0x20 // flip case of the first marker byte
	return out
}

// rotWAL flips one byte of marker inside the single WAL file in dir.
func rotWAL(t *testing.T, dir, marker string) {
	t.Helper()
	path := filepath.Join(dir, walFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipEntityByte(t, raw, marker), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLogChecksumDetectsBitRot(t *testing.T) {
	const entity = "sensor-with-a-long-stable-name"
	s := NewStore()
	l, dir := openWAL(t, s)
	s.Replace(entity, "temperature", element.Float(20), 10)
	s.Replace(entity, "temperature", element.Float(25), 20)
	closeWAL(t, l)

	// The pristine chain replays.
	recoverWAL(t, dir)

	rotWAL(t, dir, entity)
	_, _, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0)
	if err == nil {
		t.Fatal("bit-rotted record replayed silently")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum failure, got %v", err)
	}
}

func TestRecoverLogFailsOnBitRot(t *testing.T) {
	const entity = "sensor-with-a-long-stable-name"
	s := NewStore()
	l, dir := openWAL(t, s)
	s.Replace(entity, "temperature", element.Float(20), 10)
	s.PutBatch([]BatchPut{
		{Entity: entity, Attr: "pressure", Value: element.Float(1), At: 11},
		{Entity: "other", Attr: "pressure", Value: element.Float(2), At: 12},
	})
	closeWAL(t, l)

	rotWAL(t, dir, entity)
	if _, _, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0); err == nil {
		t.Fatal("recovery replayed a bit-rotted record")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum failure, got %v", err)
	}
}

// TestTruncateReseals recovers a segmented WAL with a cut through the
// middle of an opPutBatch frame: the surviving frame is rewritten with
// fewer puts and must carry a recomputed sum, so the tail file still
// passes checksum verification on the next replay.
func TestTruncateReseals(t *testing.T) {
	dir := t.TempDir()
	l, n, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh dir replayed %d records", n)
	}
	s := NewStore()
	s.AttachLog(l)
	s.PutBatch([]BatchPut{
		{Entity: "a", Attr: "x", Value: element.Int(1), At: 10},
		{Entity: "b", Attr: "x", Value: element.Int(2), At: 20},
		{Entity: "c", Attr: "x", Value: element.Int(3), At: 30},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	restored := NewStore()
	l2, n, err := RecoverWALDir(dir, restored, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d writes, want the frame's 2 post-cut puts", n)
	}
	if _, ok := restored.Find("a", "x"); ok {
		t.Fatal("pre-cut put survived truncation")
	}
	for _, e := range []string{"b", "c"} {
		if _, ok := restored.Find(e, "x"); !ok {
			t.Fatalf("post-cut put %s lost", e)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewritten tail replays cleanly: checksum recomputed, trimmed
	// put gone from the bytes.
	again := NewStore()
	l3, n, err := RecoverWALDir(dir, again, temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("resealed chain replayed %d writes, want 2", n)
	}
	if _, ok := again.Find("a", "x"); ok {
		t.Fatal("trimmed put resurfaced from the rewritten file")
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
}
