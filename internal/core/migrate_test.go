package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/state/segment"
)

// TestRecoveryRejectsPreFrameLog: a log written before the WAL was
// framed is never replayed and never skipped. The testdata log is one
// (`statestream -workload security -scale 0.01 -log` of that era); placed
// as wal.log, as a sealed chain member before a framed newest one, or
// as the only member, it fails segment.Open and the durable engine's
// open alike, with an error naming the file.
func TestRecoveryRejectsPreFrameLog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "security-flat.log"))
	if err != nil {
		t.Fatal(err)
	}
	// framed is a newest chain file holding the magic alone: a framed
	// file with no records.
	framed := []byte("SWL1")
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		named string
	}{
		{"wal.log", map[string][]byte{"wal.log": raw}, "wal.log"},
		{"sealed", map[string][]byte{"wal.00000001": raw, "wal.00000002": framed}, "wal.00000001"},
		{"only", map[string][]byte{"wal.00000001": raw}, "wal.00000001"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			d, err := segment.Open(dir)
			if err == nil {
				d.Close()
				t.Fatal("segment.Open replayed a pre-frame log")
			}
			if !strings.Contains(err.Error(), tc.named) {
				t.Fatalf("segment.Open error %q does not name %s", err, tc.named)
			}
			e := New(WithDurableDir(dir))
			defer e.Close()
			if err := e.Health().DurableErr; err == nil || !strings.Contains(err.Error(), tc.named) {
				t.Fatalf("durable engine error %v, want one naming %s", err, tc.named)
			}
		})
	}
}
