package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/element"
)

// build returns the concatenated frames of the given payloads.
func build(t *testing.T, payloads ...string) []byte {
	t.Helper()
	var b []byte
	for _, p := range payloads {
		start := len(b)
		b = append(Begin(b), p...)
		if err := Seal(b, start); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestReaderRoundTrip(t *testing.T) {
	payloads := []string{"a", "", strings.Repeat("x", 300), strings.Repeat("w", 2*Window), "tail"}
	img := build(t, payloads...)
	var buf []byte
	var r Reader
	r.Reset(bytes.NewReader(img), int64(len(img)))
	off := int64(0)
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil || string(got) != want {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
		if p, err := At(img, off); err != nil || string(p) != want {
			t.Fatalf("At frame %d: %q, %v", i, p, err)
		}
		if p, err := Read(bytes.NewReader(img), off, int64(len(img)), &buf); err != nil || string(p) != want {
			t.Fatalf("Read frame %d: %q, %v", i, p, err)
		}
		off += HeaderLen + int64(len(want))
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReaderTornAndCorrupt: a short frame is io.ErrUnexpectedEOF, a
// flipped payload bit a checksum error, and a length prefix above the
// bytes left fails before the payload buffer grows.
func TestReaderTornAndCorrupt(t *testing.T) {
	img := build(t, "first", "second")
	var r Reader
	r.Reset(bytes.NewReader(img[:len(img)-2]), int64(len(img)-2))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: %v", err)
	}

	rot := append([]byte(nil), img...)
	rot[HeaderLen] ^= 1
	r.Reset(bytes.NewReader(rot), int64(len(rot)))
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit rot: %v", err)
	}
	if _, err := At(rot, 0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("At bit rot: %v", err)
	}

	huge := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(huge, MaxPayload)
	var fresh Reader
	fresh.Reset(bytes.NewReader(huge), int64(len(huge)))
	if _, err := fresh.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("oversized length: %v", err)
	}
	if cap(fresh.buf) != 0 {
		t.Fatalf("oversized length grew the buffer to %d bytes", cap(fresh.buf))
	}
	var buf []byte
	if _, err := Read(bytes.NewReader(huge), 0, int64(len(huge)), &buf); err == nil {
		t.Fatal("Read accepted an oversized length")
	}
	if cap(buf) > Window {
		t.Fatalf("oversized length grew the buffer to %d bytes", cap(buf))
	}
	if _, err := Read(bytes.NewReader(rot), 0, int64(len(rot)), &buf); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Read bit rot: %v", err)
	}
	short := img[:len(img)-2]
	if _, err := Read(bytes.NewReader(short), HeaderLen+5, int64(len(img)), &buf); !errors.Is(err, io.EOF) {
		t.Fatalf("Read of a frame past the end of its source: %v", err)
	}
}

// countingReaderAt counts preads.
type countingReaderAt struct {
	r io.ReaderAt
	n int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.n++
	return c.r.ReadAt(p, off)
}

// TestReadOnePread: a frame that fits the window, header included, is
// one pread; a larger one is exactly two, the second only for the rest.
// A reused buffer makes repeated reads allocation-free.
func TestReadOnePread(t *testing.T) {
	fits := strings.Repeat("f", Window-HeaderLen)
	big := strings.Repeat("b", Window-HeaderLen+1)
	img := build(t, fits, big)
	src := &countingReaderAt{r: bytes.NewReader(img)}
	var buf []byte
	for _, tc := range []struct {
		off    int64
		want   string
		preads int
	}{
		{0, fits, 1},
		{Window, big, 2},
	} {
		src.n = 0
		if p, err := Read(src, tc.off, int64(len(img)), &buf); err != nil || string(p) != tc.want {
			t.Fatalf("frame @%d: %d bytes, %v", tc.off, len(p), err)
		}
		if src.n != tc.preads {
			t.Fatalf("frame @%d of %d bytes: %d preads, want %d", tc.off, len(tc.want), src.n, tc.preads)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Read(src, Window, int64(len(img)), &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a read into a grown buffer allocated %.0f times", allocs)
	}
}

// TestPrimitivesRoundTrip covers the payload primitives, including a
// value long enough to widen its length prefix.
func TestPrimitivesRoundTrip(t *testing.T) {
	vals := []element.Value{
		element.Null, element.Int(-7), element.Float(2.5), element.Bool(true),
		element.String("short"), element.String(strings.Repeat("y", 127)),
		element.String(strings.Repeat("z", 5000)),
	}
	b := AppendString(nil, "entity")
	b = AppendInstant(b, -42)
	for _, v := range vals {
		var err error
		if b, err = AppendValue(b, v); err != nil {
			t.Fatal(err)
		}
	}
	b = binary.AppendVarint(b, -3)
	c := NewCursor(b)
	if s := c.Str(); s != "entity" {
		t.Fatalf("string %q", s)
	}
	if at := c.Instant(); at != -42 {
		t.Fatalf("instant %d", at)
	}
	for i, want := range vals {
		var got element.Value
		c.Value(&got)
		if c.Err() != nil || got.Kind() != want.Kind() || !(got.IsNull() || got.Equal(want)) {
			t.Fatalf("value %d: %v, %v", i, got, c.Err())
		}
	}
	if v := c.Varint(); v != -3 || c.Err() != nil || c.Len() != 0 {
		t.Fatalf("varint %d err %v left %d", v, c.Err(), c.Len())
	}
	c.U8()
	if c.Err() == nil {
		t.Fatal("reading past the end did not latch an error")
	}
}
