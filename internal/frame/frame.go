// Package frame is the binary record codec of the durable layer: the
// WAL (internal/state) and the segment files (internal/state/segment)
// both store self-delimiting, checksummed frames
//
//	frame := len:u32 crc:u32 payload          (crc32c over payload)
//
// and build their payloads from the same primitives: fixed-width
// little-endian instants, uvarint-prefixed strings and values, varints
// for counts. The length prefix sits outside the checksum, so every
// reader bounds it by the bytes actually present before allocating.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/element"
	"repro/internal/temporal"
)

const (
	// HeaderLen is the size of a frame header: length and checksum.
	HeaderLen = 8
	// MaxPayload bounds a frame payload (1 GiB): anything larger in a
	// length prefix is corruption, not data.
	MaxPayload = 1 << 30
)

// crcTable is the Castagnoli polynomial table (crc32c), hardware
// accelerated on amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum returns the crc32c of p.
func checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// Begin appends a placeholder header to b. The caller appends the
// payload after it and calls Seal with the header's offset.
func Begin(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }

// Seal fills in the header at b[start:] for the payload that follows it
// to the end of b.
func Seal(b []byte, start int) error {
	payload := b[start+HeaderLen:]
	if len(payload) > MaxPayload {
		return fmt.Errorf("frame of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], checksum(payload))
	return nil
}

// checksumErr reports a payload whose crc does not match its header.
func checksumErr(got, want uint32) error {
	return fmt.Errorf("frame checksum mismatch (got %08x want %08x)", got, want)
}

// At verifies the frame at off in an in-memory image and returns its
// payload, a subslice of img.
func At(img []byte, off int64) ([]byte, error) {
	if off < 0 || off+HeaderLen > int64(len(img)) {
		return nil, errors.New("frame out of bounds")
	}
	n := int64(binary.LittleEndian.Uint32(img[off:]))
	want := binary.LittleEndian.Uint32(img[off+4:])
	if n > MaxPayload || off+HeaderLen+n > int64(len(img)) {
		return nil, fmt.Errorf("frame length %d out of bounds", n)
	}
	payload := img[off+HeaderLen : off+HeaderLen+n]
	if got := checksum(payload); got != want {
		return nil, checksumErr(got, want)
	}
	return payload, nil
}

// Window is how many bytes Read fetches in its first pread: the header
// plus the start of the payload. Most frames fit in it whole, so a
// frame read is one syscall; a larger one takes a second pread for
// exactly the rest.
const Window = 4 << 10

// Read preads the frame at off into *buf, growing it as needed, and
// verifies its checksum. The payload it returns is a subslice of *buf,
// valid until the buffer's next use. size (the file size) bounds both
// preads, so a bit-rotted length prefix fails before it drives an
// allocation.
func Read(f io.ReaderAt, off, size int64, buf *[]byte) ([]byte, error) {
	if off < 0 || off+HeaderLen > size {
		return nil, errors.New("frame out of bounds")
	}
	w := int(min(size-off, Window))
	b := slices.Grow((*buf)[:0], w)[:w]
	got, err := f.ReadAt(b, off)
	if got < HeaderLen {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(b[0:]))
	want := binary.LittleEndian.Uint32(b[4:])
	if n > MaxPayload || off+HeaderLen+n > size {
		return nil, fmt.Errorf("frame length %d out of bounds", n)
	}
	if end := HeaderLen + int(n); end > got {
		if got < w {
			return nil, fmt.Errorf("frame payload: %w", err)
		}
		b = slices.Grow(b[:got], end-got)[:end]
		if m, err := f.ReadAt(b[got:], off+int64(got)); m < end-got {
			return nil, fmt.Errorf("frame payload: %w", err)
		}
	}
	*buf = b[:0]
	payload := b[HeaderLen : HeaderLen+n]
	if got := checksum(payload); got != want {
		return nil, checksumErr(got, want)
	}
	return payload, nil
}

// Reader streams the frames of a sequential source of known length
// through one reused payload buffer.
type Reader struct {
	r    io.Reader
	left int64
	buf  []byte
}

// Reset points the reader at a new source holding size bytes, keeping
// the payload buffer.
func (r *Reader) Reset(src io.Reader, size int64) { r.r, r.left = src, size }

// Next returns the next frame's payload, valid until the following call.
// It returns io.EOF at a clean end and io.ErrUnexpectedEOF when the
// source ends inside a frame — including a length prefix claiming more
// bytes than are left, which fails before the payload is allocated.
func (r *Reader) Next() ([]byte, error) {
	if r.left == 0 {
		return nil, io.EOF
	}
	if r.left < HeaderLen {
		return nil, io.ErrUnexpectedEOF
	}
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	r.left -= HeaderLen
	n := int64(binary.LittleEndian.Uint32(hdr[0:]))
	want := binary.LittleEndian.Uint32(hdr[4:])
	if n > r.left {
		return nil, io.ErrUnexpectedEOF
	}
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	payload := r.buf[:n]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("frame payload: %w", err)
	}
	r.left -= n
	if got := checksum(payload); got != want {
		return nil, checksumErr(got, want)
	}
	return payload, nil
}

// AppendString appends a uvarint length prefix plus the bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendInstant appends a fixed-width little-endian instant.
func AppendInstant(b []byte, t temporal.Instant) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(t))
}

// AppendValue appends v's binary encoding behind a uvarint length
// prefix. Encodings shorter than 128 bytes — every non-string value and
// short strings — are written in place behind a one-byte prefix; longer
// ones shift once to widen it.
func AppendValue(b []byte, v element.Value) ([]byte, error) {
	at := len(b)
	b, err := v.AppendBinary(append(b, 0))
	if err != nil {
		return b[:at], err
	}
	n := len(b) - at - 1
	if n < 0x80 {
		b[at] = byte(n)
		return b, nil
	}
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	b = append(b, pre[1:k]...)
	copy(b[at+k:], b[at+1:at+1+n])
	copy(b[at:], pre[:k])
	return b, nil
}

// Provenance flag bits: a derived fact, and a fact with a source name.
const (
	flagDerived   byte = 1 << 0
	flagHasSource byte = 1 << 1
)

// AppendProvenance appends a fact's provenance, flags:u8 [source]: the
// source is present iff it is non-empty, so an asserted fact with no
// source costs one byte.
func AppendProvenance(b []byte, derived bool, source string) []byte {
	var flags byte
	if derived {
		flags |= flagDerived
	}
	if source != "" {
		flags |= flagHasSource
	}
	b = append(b, flags)
	if source != "" {
		b = AppendString(b, source)
	}
	return b
}

// Cursor decodes the primitives of a frame payload, latching the first
// error so call sites check once per frame.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor at the start of payload.
func NewCursor(payload []byte) Cursor { return Cursor{b: payload} }

// Err reports the first decode error, if any.
func (c *Cursor) Err() error { return c.err }

// Len reports the bytes left.
func (c *Cursor) Len() int { return len(c.b) }

// U8 decodes one byte.
func (c *Cursor) U8() byte {
	if c.err != nil || len(c.b) < 1 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// Uvarint decodes an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Varint decodes a signed varint.
func (c *Cursor) Varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Bytes returns the next n bytes, a subslice of the payload.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil || n < 0 || len(c.b) < n {
		c.fail()
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// Take returns the next n bytes, or false (latching the error) when
// fewer are left — the fixed-width fast path of record decoders.
func (c *Cursor) Take(n int) ([]byte, bool) {
	v := c.Bytes(n)
	return v, c.err == nil
}

// Str decodes a uvarint-prefixed string.
func (c *Cursor) Str() string { return string(c.Bytes(c.length())) }

// StrReuse decodes a uvarint-prefixed string, returning s itself when
// the bytes equal it: a string the caller already holds costs no
// allocation, and the result never aliases the payload.
func (c *Cursor) StrReuse(s string) string {
	if b := c.Bytes(c.length()); string(b) != s {
		return string(b)
	}
	return s
}

// Instant decodes a fixed-width instant.
func (c *Cursor) Instant() temporal.Instant {
	b := c.Bytes(8)
	if b == nil {
		return 0
	}
	return temporal.Instant(binary.LittleEndian.Uint64(b))
}

// Value decodes a uvarint-prefixed value encoding into v.
func (c *Cursor) Value(v *element.Value) {
	b := c.Bytes(c.length())
	if c.err != nil {
		return
	}
	if err := v.UnmarshalBinary(b); err != nil {
		c.err = err
	}
}

// Provenance decodes what AppendProvenance wrote, returning reuse as the
// source when it holds the same bytes (see StrReuse).
func (c *Cursor) Provenance(reuse string) (derived bool, source string) {
	flags := c.U8()
	if flags&flagHasSource != 0 {
		source = c.StrReuse(reuse)
	}
	return flags&flagDerived != 0, source
}

// length decodes a uvarint length prefix, failing on one that exceeds
// the bytes left (which also keeps it within int).
func (c *Cursor) length() int {
	n := c.Uvarint()
	if n > uint64(len(c.b)) {
		c.fail()
		return 0
	}
	return int(n)
}

func (c *Cursor) fail() {
	if c.err == nil {
		c.err = errors.New("truncated frame payload")
	}
}
