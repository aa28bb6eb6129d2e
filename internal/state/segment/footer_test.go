package segment

// Footer decoding: the per-frame value-envelope tail, its backward
// compatibility with segments written before it, and a fuzz target over
// the footer decoder.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/state"
	"repro/internal/temporal"
)

// footerSeed is one segment file's footer payload and its file offset.
type footerSeed struct {
	name    string
	payload []byte
	off     int64
}

// readFooterSeeds extracts the footer of every segment file in dir.
func readFooterSeeds(tb testing.TB, dir string) []footerSeed {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no segments in %s: %v", dir, err)
	}
	var seeds []footerSeed
	for _, p := range paths {
		img, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		off := int64(binary.LittleEndian.Uint64(img[len(img)-trailerLen:]))
		n := int64(binary.LittleEndian.Uint32(img[off:]))
		payload := img[off+frame.HeaderLen : off+frame.HeaderLen+n]
		seeds = append(seeds, footerSeed{name: filepath.Base(p), payload: payload, off: off})
	}
	return seeds
}

// writeFooterDir writes a small directory whose segments hold numeric,
// string, and mixed lineages — one merged segment of three flushes plus
// one later flush segment — and returns it closed.
func writeFooterDir(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	d, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		keys := 6
		if r == 3 {
			keys = 1 // leaves the merged segment mostly live
		}
		for i := 0; i < keys; i++ {
			at := temporal.Instant(r*100 + i + 1)
			opts := []state.WriteOpt{state.WithValidTime(at), state.WithTransactionTime(at)}
			if err := d.Put(fmt.Sprintf("n%d", i), "v", element.Int(int64(r*10+i)), opts...); err != nil {
				tb.Fatal(err)
			}
			if err := d.Put(fmt.Sprintf("s%d", i), "v", element.String("x"), opts...); err != nil {
				tb.Fatal(err)
			}
		}
		at := temporal.Instant(r*100 + 50)
		val := element.Value(element.Float(1.5))
		if r == 1 {
			val = element.String("mixed")
		}
		if err := d.Put("mix", "v", val, state.WithValidTime(at), state.WithTransactionTime(at)); err != nil {
			tb.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			tb.Fatal(err)
		}
		if r == 2 {
			compactAll(tb, d)
		}
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// frameTailLen is the byte length of a decoded footer's frame-envelope
// tail.
func frameTailLen(r *reader) int {
	n := 0
	for _, ref := range r.index {
		n++
		if ref.numeric {
			n += 16
		}
	}
	return n
}

// TestSegmentFooterFrameEnvelopes: the writer persists each frame's
// envelope as state.ValueEnvelopeOf over its records; a footer without
// the tail decodes every frame as non-numeric, and a truncated tail
// fails the decode instead of reading as absent.
func TestSegmentFooterFrameEnvelopes(t *testing.T) {
	dir := writeFooterDir(t)
	for _, s := range readFooterSeeds(t, dir) {
		f, err := os.Open(filepath.Join(dir, s.name))
		if err != nil {
			t.Fatal(err)
		}
		st, _ := f.Stat()
		r := &reader{f: f, path: s.name, size: st.Size()}
		if err := r.decodeFooter(s.payload, s.off); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		numeric := 0
		for key, ref := range r.index {
			records, err := r.readLineage(key, ref.off, new(state.ColdBuf))
			if err != nil {
				t.Fatalf("%s: read %s: %v", s.name, key, err)
			}
			lo, hi, ok := state.ValueEnvelopeOf(records)
			if ref.numeric != ok || (ok && (ref.lo != lo || ref.hi != hi)) {
				t.Fatalf("%s: %s frame envelope (%v, %v, %v), records fold to (%v, %v, %v)",
					s.name, key, ref.lo, ref.hi, ref.numeric, lo, hi, ok)
			}
			if (key.Entity == "mix" || strings.HasPrefix(key.Entity, "s")) == ok {
				t.Fatalf("%s: %s numeric=%v", s.name, key, ok)
			}
			if ok {
				numeric++
			}
		}
		f.Close()
		if numeric == 0 {
			t.Fatalf("%s: no numeric frame — the tail is not being tested", s.name)
		}

		tail := frameTailLen(r)
		head := s.payload[:len(s.payload)-tail]
		old := &reader{size: r.size}
		if err := old.decodeFooter(head, s.off); err != nil {
			t.Fatalf("%s: footer without the frame tail: %v", s.name, err)
		}
		for key, ref := range old.index {
			if ref.numeric || ref.off != r.index[key].off {
				t.Fatalf("%s: tail-less footer decoded %s as %+v", s.name, key, ref)
			}
		}
		for cut := 1; cut < tail; cut++ {
			torn := &reader{size: r.size}
			if err := torn.decodeFooter(s.payload[:len(head)+cut], s.off); err == nil {
				t.Fatalf("%s: frame tail truncated to %d of %d bytes decoded", s.name, cut, tail)
			}
		}
	}
}

// FuzzSegmentFooter: decoding an arbitrary footer payload never panics,
// and every offset it accepts lies inside the file, before the footer.
// Seeds are real writer output with and without the frame-envelope
// tail, and the footers of testdata/swept-v3, written before the tail
// existed.
func FuzzSegmentFooter(f *testing.F) {
	seeds := readFooterSeeds(f, writeFooterDir(f))
	for _, s := range seeds {
		r := &reader{size: s.off + 1<<20}
		if err := r.decodeFooter(s.payload, s.off); err != nil {
			f.Fatalf("%s: %v", s.name, err)
		}
		f.Add(s.payload, uint32(s.off))
		f.Add(s.payload[:len(s.payload)-frameTailLen(r)], uint32(s.off))
	}
	for _, s := range readFooterSeeds(f, filepath.Join("testdata", "swept-v3")) {
		f.Add(s.payload, uint32(s.off))
	}
	// A footer claiming 2^40 entries in 3 bytes: open must fail before
	// allocating for them.
	huge := []byte{kindFooter, 0, 0, 0, 0, 0}
	f.Add(append(binary.AppendUvarint(huge, 1<<40), 0, 0, 4), uint32(100))
	f.Fuzz(func(t *testing.T, payload []byte, footerOff uint32) {
		off := int64(footerOff)
		r := &reader{size: off + frame.HeaderLen + int64(len(payload)) + trailerLen}
		if err := r.decodeFooter(payload, off); err != nil {
			return
		}
		for key, ref := range r.index {
			if ref.off < int64(len(fileMagic)) || ref.off >= off || ref.off >= r.size {
				t.Fatalf("%s: offset %d outside [%d, %d) of a %d-byte file",
					key, ref.off, len(fileMagic), off, r.size)
			}
		}
	})
}
