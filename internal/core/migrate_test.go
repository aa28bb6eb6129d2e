package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/state"
)

// TestRecoveryFlatLogMigration pins the migration path for flat logs
// written by the retired single-file log (statestream -log): the file
// is the same checksummed record stream a WAL chain holds, so moving it
// into a directory as wal.log is the whole migration. The testdata log
// is `statestream -workload security -scale 0.01 -log`; the expected
// counts and rows are what the flat-log reader reported for it.
func TestRecoveryFlatLogMigration(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "security-flat.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(WithDurableDir(dir))
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := e.Health().DurableErr; err != nil {
		t.Fatal(err)
	}
	got := e.Store().Stats()
	got.TxHigh, got.Shards = 0, 0
	want := state.Stats{Keys: 1, Versions: 30, Current: 0, Attributes: 1, Records: 60, Superseded: 30}
	if got != want {
		t.Fatalf("migrated stats %+v, want %+v", got, want)
	}

	res, err := e.Query("SELECT value, count(*) FROM position HISTORY GROUP BY value")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range res.Rows {
		rows = append(rows, r[0].String()+"="+r[1].String())
	}
	const wantRows = "room00=2 room01=4 room02=1 room03=2 room04=2 room05=4 room06=3 room07=4 room08=6 room09=2"
	if g := strings.Join(rows, " "); g != wantRows {
		t.Fatalf("migrated history rows:\n got %s\nwant %s", g, wantRows)
	}
}
