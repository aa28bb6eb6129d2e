package state

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/temporal"
)

// writeGobWAL writes recs as a gob-era WAL file at path, each record
// sealed with its checksum as the last gob-era writer did.
func writeGobWAL(t testing.TB, path string, recs []logRecord) {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range recs {
		rec := recs[i]
		rec.Summed, rec.Sum = true, rec.checksum()
		if err := enc.Encode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeFramedWAL writes five framed records to a fresh chain — one
// opPutBatch frame of two puts, then four single-write frames — and
// returns the newest file's bytes.
func writeFramedWAL(t testing.TB) []byte {
	t.Helper()
	s := NewStore()
	dir := t.TempDir()
	l, _, err := RecoverWALDir(dir, s, temporal.MinInstant, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachLog(l)
	if err := s.PutBatch([]BatchPut{
		{Entity: "k", Attr: "v", Value: element.Int(0), At: 10},
		{Entity: "j", Attr: "v", Value: element.String("x"), At: 10},
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if err := s.Put("k", "v", element.Int(i), WithValidTime(temporal.Instant(10+10*i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// frameOffsets returns the offset of every frame in a framed WAL file.
func frameOffsets(t testing.TB, raw []byte) []int {
	t.Helper()
	if string(raw[:len(walMagic)]) != walMagic {
		t.Fatalf("file does not start with the WAL magic: % x", raw[:4])
	}
	var offs []int
	for off := len(walMagic); off < len(raw); {
		offs = append(offs, off)
		off += frame.HeaderLen + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	return offs
}

// TestGobMagicDisjoint: a gob-era file never starts with the WAL magic,
// so the first four bytes pick the decoder.
func TestGobMagicDisjoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeGobWAL(t, path, []logRecord{{Op: opPut, Entity: "a", Attr: "b", Value: element.Int(1), At: 1}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xff || bytes.HasPrefix(raw, []byte(walMagic)) {
		t.Fatalf("gob stream starts % x", raw[:4])
	}
}

// TestRecoveryGobThenFramedChain: a chain whose sealed member is a
// gob-era file and whose newest member is framed replays both, in
// order, and the deferred tail rewrite leaves a framed active file. A
// chain whose only file is gob-era is rewritten as frames.
func TestRecoveryGobThenFramedChain(t *testing.T) {
	dir := t.TempDir()
	writeGobWAL(t, filepath.Join(dir, walFileName(1)), []logRecord{
		{Op: opPut, Entity: "k", Attr: "v", Value: element.Int(-2), At: 1},
		{Op: opPutBatch, Puts: []BatchPut{{Entity: "k", Attr: "v", Value: element.Int(-1), At: 5}}},
	})
	if err := os.WriteFile(filepath.Join(dir, walFileName(2)), writeFramedWAL(t), 0o644); err != nil {
		t.Fatal(err)
	}
	got, n := recoverWAL(t, dir)
	if n != 8 {
		t.Fatalf("replayed %d writes, want 2 gob + 6 framed", n)
	}
	want := NewStore()
	want.Replace("k", "v", element.Int(-2), 1)
	want.Replace("k", "v", element.Int(-1), 5)
	want.PutBatch([]BatchPut{
		{Entity: "k", Attr: "v", Value: element.Int(0), At: 10},
		{Entity: "j", Attr: "v", Value: element.String("x"), At: 10},
	})
	for i := int64(1); i <= 4; i++ {
		want.Put("k", "v", element.Int(i), WithValidTime(temporal.Instant(10+10*i)))
	}
	assertSameCut(t, want, got)
	for seq, framed := range map[uint64]bool{1: false, 2: true} {
		raw, err := os.ReadFile(filepath.Join(dir, walFileName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(raw, []byte(walMagic)) != framed {
			t.Fatalf("%s framed = %v, want %v", walFileName(seq), !framed, framed)
		}
	}

	// A lone gob file is the newest member: the rewrite frames it.
	solo := t.TempDir()
	writeGobWAL(t, filepath.Join(solo, "wal.log"), []logRecord{
		{Op: opPut, Entity: "k", Attr: "v", Value: element.Int(-2), At: 1},
	})
	s := NewStore()
	l, n, err := RecoverWALDir(solo, s, temporal.MinInstant, 0)
	if err != nil || n != 1 {
		t.Fatalf("recover gob wal.log: n=%d err=%v", n, err)
	}
	s.AttachLog(l)
	s.Replace("k", "v", element.Int(7), 9)
	closeWAL(t, l)
	raw, err := os.ReadFile(filepath.Join(solo, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(walMagic)) {
		t.Fatal("the tail rewrite left a gob active file")
	}
	again, n := recoverWAL(t, solo)
	if n != 2 {
		t.Fatalf("rewritten chain replayed %d writes, want 2", n)
	}
	assertSameCut(t, s, again)
}

// TestRecoveryCorruptLengthPrefix: a length prefix claiming more bytes
// than the file holds fails recovery in a sealed file, and in the newest
// file is a torn tail that recovers up to the last whole frame.
func TestRecoveryCorruptLengthPrefix(t *testing.T) {
	raw := writeFramedWAL(t)
	offs := frameOffsets(t, raw)
	if len(offs) != 5 {
		t.Fatalf("want 5 frames, got %d", len(offs))
	}
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[offs[2]:], uint32(len(raw)))

	sealed := t.TempDir()
	if err := os.WriteFile(filepath.Join(sealed, walFileName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sealed, walFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverWALDir(sealed, NewStore(), temporal.MinInstant, 0); err == nil {
		t.Fatal("a corrupt length prefix in a sealed file must fail recovery")
	}

	newest := t.TempDir()
	if err := os.WriteFile(filepath.Join(newest, walFileName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, n := recoverWAL(t, newest)
	if n != 3 {
		t.Fatalf("recovered %d writes, want the first two frames' 3", n)
	}
	if f, ok := got.Find("k", "v"); !ok || f.Value.MustInt() != 1 {
		t.Fatalf("recovered head %v ok=%v, want 1", f, ok)
	}
}

// TestRecoveryOversizedLengthNoAlloc: a length prefix near the frame
// limit in a tiny file fails before a payload of that size is
// allocated.
func TestRecoveryOversizedLengthNoAlloc(t *testing.T) {
	raw := writeFramedWAL(t)
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[len(walMagic):], frame.MaxPayload)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an oversized length prefix in a sealed file must fail recovery")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Fatalf("recovery allocated %d bytes for a %d-byte file", d, len(bad))
	}
}

// TestRecoveryFrameChecksumAnywhere: a payload bit flip fails recovery
// with "checksum" in the newest file too — only a short frame is a torn
// tail.
func TestRecoveryFrameChecksumAnywhere(t *testing.T) {
	raw := writeFramedWAL(t)
	offs := frameOffsets(t, raw)
	bad := append([]byte(nil), raw...)
	bad[offs[len(offs)-1]+frame.HeaderLen+2] ^= 0x01
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverWALDir(dir, NewStore(), temporal.MinInstant, 0); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want a checksum failure, got %v", err)
	}
}

// FuzzWALReplay feeds raw bytes to recovery as the newest WAL file.
// Recovery must not panic; it either fails or replays a prefix, and the
// prefix it keeps — rewritten as frames — replays to the same state.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		l, n, err := RecoverWALDir(dir, s, temporal.MinInstant, 0)
		if err != nil {
			return
		}
		closeWAL(t, l)
		again, n2 := recoverWAL(t, dir)
		if n2 != n {
			t.Fatalf("rewritten prefix replayed %d writes, first replay %d", n2, n)
		}
		assertSameCut(t, s, again)
	})
}
