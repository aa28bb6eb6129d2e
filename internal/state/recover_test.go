package state

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestRecoverLogSurfacesApplyErrors: a tail record that decodes but
// fails to apply must fail recovery loudly — silently skipping it (and
// then compacting the WAL without it) would erase committed history.
func TestRecoverLogSurfacesApplyErrors(t *testing.T) {
	l, dir := openWAL(t, NewStore())
	// A bitemporal put with empty validity: legal to encode, but apply
	// rejects it (as a skewed or hand-damaged WAL would).
	if err := l.append(walRecord{op: opPutBi, entity: "e", attr: "a", value: element.Int(1),
		start: 10, end: 10, tx: 10}); err != nil {
		t.Fatal(err)
	}
	closeWAL(t, l)
	if _, _, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0); err == nil ||
		!strings.Contains(err.Error(), "empty validity") {
		t.Fatalf("apply error swallowed: got %v, want empty validity", err)
	}
}

// TestRecoverLogTruncationIsTornTail: a newest file cut mid-record is
// the torn final append and recovers to the whole-record prefix, while
// the same truncation in a sealed chain member is a loud error. (Bit
// rot that still DECODES is caught by the per-record crc32c instead;
// see logsum_test.go.)
func TestRecoverLogTruncationIsTornTail(t *testing.T) {
	st := NewStore()
	l, dir := openWAL(t, st)
	for i := 0; i < 20; i++ {
		if err := st.Put("k", "v", element.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	closeWAL(t, l)
	path := filepath.Join(dir, walFileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, n := recoverWAL(t, dir)
	if n != 19 {
		t.Fatalf("want 19 whole records recovered, got %d", n)
	}
	if f, ok := rec.Find("k", "v"); !ok || f.Value.String() != "18" {
		t.Fatalf("recovered head: %v ok=%v", f, ok)
	}

	sealed := t.TempDir()
	if err := os.WriteFile(filepath.Join(sealed, walFileName(1)), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sealed, walFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverWALDir(sealed, NewStore(), temporal.MinInstant, 0); err == nil {
		t.Fatal("a torn sealed file must fail recovery")
	}
}
