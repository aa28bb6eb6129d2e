package segment

// Footer decoding: the per-frame value-envelope and open-value tails,
// their backward compatibility with segments written before them, and a
// fuzz target over the footer decoder.

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
// string, and mixed lineages and one deleted lineage (no open version) —
// one merged segment of three flushes plus one later flush segment — and
// returns it closed.
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
		switch r {
		case 0:
			err = d.Put("gone", "v", element.Int(7), state.WithValidTime(at), state.WithTransactionTime(at))
		case 1:
			err = d.Delete("gone", "v", state.WithValidTime(at), state.WithTransactionTime(at))
		}
		if err != nil {
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
		if ref.Numeric {
			n += 16
		}
	}
	return n
}

// openTailLen is the byte length of a decoded footer's open-value tail:
// zero when the footer has none.
func openTailLen(r *reader) int {
	n := 0
	for _, ref := range r.index {
		switch ref.Open.Kind {
		case state.OpenUnknown:
			return 0
		case state.OpenNumeric:
			n += 9
		default:
			n++
		}
	}
	return n
}

// TestSegmentFooterFrameEnvelopes: the writer persists each frame's
// envelope and open value as a head filled over its records carries
// them; a footer without the open-value tail decodes with unchanged
// offsets and envelopes and every open value unknown, one without both
// tails decodes every frame as non-numeric, and a truncated tail fails
// the decode instead of reading as absent.
func TestSegmentFooterFrameEnvelopes(t *testing.T) {
	dir := writeFooterDir(t)
	kinds := map[state.OpenKind]int{}
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
			want := state.SummarizeFrame(records)
			ok := want.Numeric
			if ref.Numeric != ok || (ok && (ref.Lo != want.Lo || ref.Hi != want.Hi)) {
				t.Fatalf("%s: %s frame envelope (%v, %v, %v), records fold to (%v, %v, %v)",
					s.name, key, ref.Lo, ref.Hi, ref.Numeric, want.Lo, want.Hi, ok)
			}
			if ref.Open != want.Open || ref.Open != currentValue(t, records) {
				t.Fatalf("%s: %s open value %+v, its head holds %+v, a current read returns %+v",
					s.name, key, ref.Open, want.Open, currentValue(t, records))
			}
			kinds[ref.Open.Kind]++
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

		open := openTailLen(r)
		noOpen := s.payload[:len(s.payload)-open]
		prev := &reader{size: r.size}
		if err := prev.decodeFooter(noOpen, s.off); err != nil {
			t.Fatalf("%s: footer without the open-value tail: %v", s.name, err)
		}
		for key, ref := range prev.index {
			want := r.index[key]
			want.Open = state.OpenValue{}
			if ref != want {
				t.Fatalf("%s: footer without the open-value tail decoded %s as %+v, want %+v", s.name, key, ref, want)
			}
		}
		for cut := 1; cut < open; cut++ {
			torn := &reader{size: r.size}
			if err := torn.decodeFooter(s.payload[:len(noOpen)+cut], s.off); err == nil {
				t.Fatalf("%s: open-value tail truncated to %d of %d bytes decoded", s.name, cut, open)
			}
		}

		tail := frameTailLen(r)
		head := noOpen[:len(noOpen)-tail]
		old := &reader{size: r.size}
		if err := old.decodeFooter(head, s.off); err != nil {
			t.Fatalf("%s: footer without the frame tail: %v", s.name, err)
		}
		for key, ref := range old.index {
			if ref.Numeric || ref.off != r.index[key].off {
				t.Fatalf("%s: tail-less footer decoded %s as %+v", s.name, key, ref)
			}
		}
		for cut := 1; cut < tail; cut++ {
			torn := &reader{size: r.size}
			if err := torn.decodeFooter(noOpen[:len(head)+cut], s.off); err == nil {
				t.Fatalf("%s: frame tail truncated to %d of %d bytes decoded", s.name, cut, tail)
			}
		}
	}
	for _, k := range []state.OpenKind{state.OpenNone, state.OpenNumeric, state.OpenOther} {
		if kinds[k] == 0 {
			t.Fatalf("no frame has open kind %d — the tail is not being tested: %v", k, kinds)
		}
	}
}

// currentValue is the open value of a lineage's records as a resident
// store's current read returns it.
func currentValue(t *testing.T, records []*element.Fact) state.OpenValue {
	t.Helper()
	if len(records) == 0 {
		return state.OpenValue{Kind: state.OpenNone}
	}
	st := state.NewStore()
	if err := st.LoadLineage(records); err != nil {
		t.Fatal(err)
	}
	f, ok := st.Find(records[0].Entity, records[0].Attribute)
	if !ok {
		return state.OpenValue{Kind: state.OpenNone}
	}
	if v, num := f.Value.AsFloat(); num {
		return state.OpenValue{Kind: state.OpenNumeric, V: v}
	}
	return state.OpenValue{Kind: state.OpenOther}
}

// FuzzSegmentFooter: decoding an arbitrary footer payload never panics,
// and every offset it accepts lies inside the file, before the footer.
// Seeds are real writer output with both optional per-frame tails,
// without the open-value tail, and without both, and the footers of
// testdata/swept-v3, written before either tail existed.
func FuzzSegmentFooter(f *testing.F) {
	seeds := readFooterSeeds(f, writeFooterDir(f))
	for _, s := range seeds {
		r := &reader{size: s.off + 1<<20}
		if err := r.decodeFooter(s.payload, s.off); err != nil {
			f.Fatalf("%s: %v", s.name, err)
		}
		noOpen := s.payload[:len(s.payload)-openTailLen(r)]
		f.Add(s.payload, uint32(s.off))
		f.Add(noOpen, uint32(s.off))
		f.Add(noOpen[:len(noOpen)-frameTailLen(r)], uint32(s.off))
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
