// Segment file format: the on-disk shape of one durability flush.
//
// A segment is an immutable, append-once file of length-prefixed,
// checksummed frames:
//
//	file    := magic "SSG1" frame* trailer
//	frame   := len:u32 crc:u32 payload          (crc32c over payload)
//	payload := kind:u8 body
//	trailer := footerOff:u64 magic "SGFT"       (last 12 bytes)
//
// Two frame kinds exist. A lineage frame (kind 1) carries the full
// record set of one `entity#attribute` lineage as of the segment's cut —
// the per-lineage WriteSnapshot cut FlushCut emits. The footer (kind 2,
// always the last frame) carries the segment's cut transaction time, the
// bitemporal min/max envelope of every contained record (for ASOF /
// SYSTEM TIME read pruning), and the key → frame-offset index the
// in-memory manifest is rebuilt from at open. Optional tails follow the
// index; a segment written before a tail existed simply ends earlier:
//
//	footer   := kind:u8 cut env index [level tombs [vEnv [frameEnv^n [openVal^n]]]]
//	index    := n:uvarint (entity attribute off:uvarint)^n  (sorted keys)
//	vEnv     := numeric:uvarint lo:f64 hi:f64  (segment value envelope)
//	frameEnv := flag:u8 [lo:f64 hi:f64]        (lo/hi iff flag = 1)
//	openVal  := kind:u8 [v:f64]                (v iff kind = 2)
//
// frameEnv is each frame's numeric value envelope and openVal the value
// of its open version (kind 0 unknown, 1 none, 2 numeric, 3 other:
// state.OpenKind), one of each per index entry in index order: a
// value-bounded scan drops an evicted lineage before reading its frame
// when the envelope excludes the bounds, or when the read selects the
// open version and the open value does. Since merges re-encode every
// surviving frame, merged segments carry both. A reader stops at the
// end of the tails it knows, so a build that predates a tail still
// opens segments that carry it.
//
// Frames and their primitives are internal/frame's, the codec the WAL
// shares. Record instants are fixed-width little-endian (decode is four
// 8-byte loads on the bulk path); counts and offsets are varint/uvarint
// encoded; strings and value payloads are length-prefixed. Records
// within a lineage frame appear in recording order, so a frame
// round-trips through state.LoadLineage byte-exactly.
// Torn writes are detected by the length/crc pair: a frame that does not
// checksum is treated as absent, and a file without a valid trailer and
// footer is not a segment (open fails; recovery deletes such orphans —
// a segment is only referenced by the manifest after it is fully synced).

package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/state"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

const (
	fileMagic    = "SSG1"
	trailerMagic = "SGFT"
	trailerLen   = 12

	kindLineage byte = 1
	kindFooter  byte = 2
)

// envelope is the bitemporal min/max summary of a record set: the
// valid-time span covered and the transaction-time span recorded. A
// point read outside the envelope cannot match any contained record, so
// segment reads prune on it (see Store.findFrame). Zero value = empty
// (Min > Max).
type envelope struct {
	minValid, maxValid temporal.Instant
	minTx, maxTx       temporal.Instant
}

// emptyEnvelope orders the bounds so any observation extends them.
func emptyEnvelope() envelope {
	return envelope{
		minValid: temporal.Forever, maxValid: temporal.MinInstant,
		minTx: temporal.Forever, maxTx: temporal.MinInstant,
	}
}

// observe extends the envelope with one record.
func (e *envelope) observe(f *element.Fact) {
	if f.Validity.Start < e.minValid {
		e.minValid = f.Validity.Start
	}
	if f.Validity.End > e.maxValid {
		e.maxValid = f.Validity.End
	}
	if f.RecordedAt < e.minTx {
		e.minTx = f.RecordedAt
	}
	if f.RecordedAt > e.maxTx {
		e.maxTx = f.RecordedAt
	}
	if end := f.SupersededAt; end != temporal.Forever && end > e.maxTx {
		e.maxTx = end
	}
}

// frameRef locates one lineage frame in a segment and carries the
// frame's summary, exactly what its decoded head carries: the numeric
// value envelope and the open value. Numeric is false for every frame of
// a segment written before the footer carried frame envelopes, and Open
// unknown for every frame of one written before it carried open values:
// such frames are never pruned by what they lack.
type frameRef struct {
	off int64
	state.FrameSummary
}

// writer builds one segment file. Frames are buffered through bufio and
// the file is fsynced in finish, BEFORE the caller references it from
// the manifest — the crash-atomicity contract of the format.
type writer struct {
	f     vfs.File
	fs    vfs.FS
	bw    *bufio.Writer
	path  string
	off   int64
	index map[element.FactKey]frameRef
	env   envelope
	scr   []byte // payload scratch, reused across frames
	// level is the compaction level the finished segment carries in its
	// footer: 0 for flush output, victims' max + 1 for merge output.
	level int
	// tombs counts the tombstone (empty) lineage frames written — footer
	// metadata compaction victim selection reads without opening frames.
	tombs int
	// vMin/vMax/vNumeric are the segment's numeric value envelope, the
	// union of its non-empty frames' envelopes: vNumeric reports at least
	// one record written and every frame numeric — only then may a scan
	// skip the whole segment on disjoint ValueBounds.
	vMin, vMax float64
	vNumeric   bool
	// frames is the finished reader's load counter (see reader.frames).
	frames *atomic.Int64
}

// createSegment opens a new segment file at path and writes the header.
// level is recorded in the footer (see writer.level); every frame the
// finished segment loads counts into frames.
func createSegment(fsys vfs.FS, path string, level int, frames *atomic.Int64) (*writer, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("segment: create: %w", err)
	}
	w := &writer{
		f: f, fs: fsys, bw: bufio.NewWriterSize(f, 1<<16), path: path,
		index: make(map[element.FactKey]frameRef),
		env:   emptyEnvelope(),
		level: level, frames: frames,
	}
	if _, err := w.bw.WriteString(fileMagic); err != nil {
		w.abort()
		return nil, fmt.Errorf("segment: header: %w", err)
	}
	w.off = int64(len(fileMagic))
	return w, nil
}

// writeFrame seals the frame b holds (built on frame.Begin), appends it,
// and returns its file offset.
func (w *writer) writeFrame(b []byte) (int64, error) {
	if err := frame.Seal(b, 0); err != nil {
		return 0, err
	}
	off := w.off
	if _, err := w.bw.Write(b); err != nil {
		return 0, err
	}
	w.off += int64(len(b))
	return off, nil
}

// writeLineage appends one lineage frame: the records of key's cut, in
// recording order. It only reads records, so a caller may pass scratch
// copies it reuses after the call (as FlushCut does).
func (w *writer) writeLineage(key element.FactKey, records []*element.Fact) error {
	b := frame.Begin(w.scr[:0])
	b = append(b, kindLineage)
	b = frame.AppendString(b, key.Entity)
	b = frame.AppendString(b, key.Attribute)
	b = binary.AppendUvarint(b, uint64(len(records)))
	for _, f := range records {
		// The four instants are fixed-width: a cold start decodes tens
		// of thousands of records, and four unconditional 8-byte loads
		// beat four varint parses by an order of magnitude. The strings
		// stay length-prefixed; an absent source costs one flag bit.
		b = frame.AppendInstant(b, f.Validity.Start)
		b = frame.AppendInstant(b, f.Validity.End)
		b = frame.AppendInstant(b, f.RecordedAt)
		b = frame.AppendInstant(b, f.SupersededAt)
		b = frame.AppendProvenance(b, f.Derived, f.Source)
		var err error
		if b, err = frame.AppendValue(b, f.Value); err != nil {
			return fmt.Errorf("segment: %s: %w", key, err)
		}
		w.env.observe(f)
	}
	w.scr = b
	off, err := w.writeFrame(b)
	if err != nil {
		return fmt.Errorf("segment: %s: %w", key, err)
	}
	ref := frameRef{off: off, FrameSummary: state.SummarizeFrame(records)}
	if len(records) == 0 {
		w.tombs++
	} else {
		// Every frame before the first non-empty one was a tombstone: it
		// seeds the segment envelope; later frames widen or void it.
		switch {
		case len(w.index) == w.tombs:
			w.vMin, w.vMax, w.vNumeric = ref.Lo, ref.Hi, ref.Numeric
		case !ref.Numeric:
			w.vNumeric = false
		default:
			w.vMin, w.vMax = min(w.vMin, ref.Lo), max(w.vMax, ref.Hi)
		}
	}
	w.index[key] = ref
	return nil
}

// finish writes the footer frame and trailer, flushes, and fsyncs. The
// file handle stays open for reads; the returned reader serves them.
func (w *writer) finish(cut temporal.Instant) (*reader, error) {
	keys := make([]element.FactKey, 0, len(w.index))
	for k := range w.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Attribute != keys[j].Attribute {
			return keys[i].Attribute < keys[j].Attribute
		}
		return keys[i].Entity < keys[j].Entity
	})
	b := frame.Begin(w.scr[:0])
	b = append(b, kindFooter)
	b = binary.AppendVarint(b, int64(cut))
	b = binary.AppendVarint(b, int64(w.env.minValid))
	b = binary.AppendVarint(b, int64(w.env.maxValid))
	b = binary.AppendVarint(b, int64(w.env.minTx))
	b = binary.AppendVarint(b, int64(w.env.maxTx))
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = frame.AppendString(b, k.Entity)
		b = frame.AppendString(b, k.Attribute)
		b = binary.AppendUvarint(b, uint64(w.index[k].off))
	}
	// Compaction metadata rides after the index as optional trailing
	// fields: segments written before levels existed simply end here and
	// decode as level 0 with no tombstones.
	b = binary.AppendUvarint(b, uint64(w.level))
	b = binary.AppendUvarint(b, uint64(w.tombs))
	// The numeric value envelope is a second optional tail: segments
	// written before it existed decode as vNumeric=false — never pruned
	// by value bounds, always correct.
	vn := uint64(0)
	if w.vNumeric {
		vn = 1
	}
	b = binary.AppendUvarint(b, vn)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.vMin))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.vMax))
	// The per-frame value envelopes are the next optional tail, one entry
	// per key in index order: segments written before it decode every
	// frame as non-numeric — never frame-pruned, always correct.
	for _, k := range keys {
		ref := w.index[k]
		if !ref.Numeric {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ref.Lo))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ref.Hi))
	}
	// The per-frame open values are the last optional tail, in the same
	// order: segments written before it decode every frame's open value
	// as unknown — never pruned by it, always correct.
	for _, k := range keys {
		open := w.index[k].Open
		b = append(b, byte(open.Kind))
		if open.Kind == state.OpenNumeric {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(open.V))
		}
	}
	w.scr = b
	footerOff, err := w.writeFrame(b)
	if err != nil {
		w.abort()
		return nil, fmt.Errorf("segment: footer: %w", err)
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(footerOff))
	copy(tr[8:], trailerMagic)
	if _, err := w.bw.Write(tr[:]); err != nil {
		w.abort()
		return nil, fmt.Errorf("segment: trailer: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		w.abort()
		return nil, fmt.Errorf("segment: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return nil, fmt.Errorf("segment: sync: %w", err)
	}
	r := &reader{
		f: w.f, fs: w.fs, path: w.path, size: w.off + trailerLen,
		cut: cut, env: w.env, index: w.index,
		level: w.level, tombs: w.tombs,
		vMin: w.vMin, vMax: w.vMax, vNumeric: w.vNumeric,
		frames: w.frames,
	}
	r.live.Store(int64(len(w.index)))
	return r, nil
}

// abort discards a partially written segment.
func (w *writer) abort() {
	w.f.Close()
	w.fs.Remove(w.path)
}

// reader is one open segment: its footer index in memory, lineage frames
// read on demand with pread (ReadAt), so concurrent point reads never
// seek-contend.
type reader struct {
	f    vfs.File
	fs   vfs.FS
	path string
	// size bounds every frame read: the length prefix sits outside the
	// frame checksum, so without the bound a bit-rotted prefix would
	// drive an arbitrary allocation before the read fails.
	size int64
	cut  temporal.Instant
	env  envelope
	// index maps each key to its frame: the offset, plus the frame's
	// value envelope a value-bounded scan prunes it by before the pread.
	index map[element.FactKey]frameRef
	// level is the segment's compaction level (0 = flush output); tombs
	// its tombstone-frame count. Both come from the footer.
	level int
	tombs int
	// vMin/vMax/vNumeric are the segment's numeric value envelope from
	// the footer (see writer): when vNumeric, every record value in the
	// segment lies in [vMin, vMax], so a scan with disjoint value bounds
	// prunes every frame without a pread.
	vMin, vMax float64
	vNumeric   bool
	// live counts the keys whose NEWEST durable frame is in this segment
	// — the catalog's per-segment accounting, maintained O(dirty) per
	// flush: each flush decrements the previous owner of every key it
	// rewrites. len(index) - live + tombs is the reclaimable garbage
	// compaction victim selection scores by.
	live atomic.Int64
	// frames is the owning store's cold-load counter (Info.ScanFrames),
	// which LoadFrame adds to.
	frames *atomic.Int64
}

// openSegment opens and validates a segment file: trailer, footer frame
// checksum, index. Lineage frames are validated lazily on first read;
// every one LoadFrame reads counts into frames.
func openSegment(fsys vfs.FS, path string, frames *atomic.Int64) (*reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: open: %w", err)
	}
	r, err := loadSegment(fsys, f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.frames = frames
	return r, nil
}

// loadSegment parses the trailer and footer of an open segment file.
func loadSegment(fsys vfs.FS, f vfs.File, path string) (*reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segment: stat %s: %w", path, err)
	}
	size := st.Size()
	if size < int64(len(fileMagic))+trailerLen {
		return nil, fmt.Errorf("segment: %s: too short (%d bytes)", path, size)
	}
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != fileMagic {
		return nil, fmt.Errorf("segment: %s: bad header", path)
	}
	var tr [trailerLen]byte
	if _, err := f.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("segment: %s: trailer: %w", path, err)
	}
	if string(tr[8:]) != trailerMagic {
		return nil, fmt.Errorf("segment: %s: bad trailer", path)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	var buf []byte
	payload, err := frame.Read(f, footerOff, size, &buf)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: footer: %w", path, err)
	}
	r := &reader{f: f, fs: fsys, path: path, size: size}
	if err := r.decodeFooter(payload, footerOff); err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	return r, nil
}

// footerEntry is one decoded index entry, staged so the index map is
// built once, after the optional tails filled in the frame envelopes.
type footerEntry struct {
	key element.FactKey
	ref frameRef
}

// decodeFooter parses a checksum-verified footer payload into r. The
// entry count is bounded by the bytes left before anything is
// allocated, and every frame offset must precede the footer, so a
// corrupt footer fails the open instead of driving an allocation or a
// later out-of-range read. An optional tail is either absent or whole:
// a truncated one is corruption, never "no tail".
func (r *reader) decodeFooter(payload []byte, footerOff int64) error {
	c := frame.NewCursor(payload)
	if c.U8() != kindFooter {
		return errors.New("footer has wrong frame kind")
	}
	r.cut = temporal.Instant(c.Varint())
	r.env.minValid = temporal.Instant(c.Varint())
	r.env.maxValid = temporal.Instant(c.Varint())
	r.env.minTx = temporal.Instant(c.Varint())
	r.env.maxTx = temporal.Instant(c.Varint())
	n := c.Uvarint()
	// An entry takes at least 3 bytes: two string length prefixes and
	// the offset.
	if c.Err() != nil || n > uint64(c.Len()/3) {
		return errors.New("corrupt footer")
	}
	ents := make([]footerEntry, n)
	for i := range ents {
		ents[i].key = element.FactKey{Entity: c.Str(), Attribute: c.Str()}
		off := c.Uvarint()
		if c.Err() != nil || off < uint64(len(fileMagic)) || off >= uint64(footerOff) {
			return fmt.Errorf("corrupt footer entry %d", i)
		}
		ents[i].ref.off = int64(off)
	}
	// Optional trailing compaction metadata (see writer.finish): absent
	// in segments written before levels existed.
	if c.Len() > 0 {
		r.level = int(c.Uvarint())
		r.tombs = int(c.Uvarint())
		if c.Err() != nil {
			return errors.New("corrupt footer metadata")
		}
	}
	// Optional trailing value envelope: absent in older segments, which
	// decode as vNumeric=false (never value-pruned).
	if c.Len() > 0 {
		vn := c.Uvarint()
		vb, ok := c.Take(16)
		if !ok {
			return errors.New("corrupt footer value envelope")
		}
		r.vNumeric = vn == 1
		r.vMin = math.Float64frombits(binary.LittleEndian.Uint64(vb))
		r.vMax = math.Float64frombits(binary.LittleEndian.Uint64(vb[8:]))
	}
	// Optional per-frame value envelopes: absent in older segments, whose
	// frames decode as numeric=false (never frame-pruned).
	if c.Len() > 0 {
		for i := range ents {
			switch c.U8() {
			case 0:
			case 1:
				vb, ok := c.Take(16)
				if !ok {
					return fmt.Errorf("corrupt footer frame envelope %d", i)
				}
				e := &ents[i].ref
				e.Lo = math.Float64frombits(binary.LittleEndian.Uint64(vb))
				e.Hi = math.Float64frombits(binary.LittleEndian.Uint64(vb[8:]))
				e.Numeric = true
			default:
				return fmt.Errorf("corrupt footer frame envelope %d", i)
			}
		}
		if c.Err() != nil {
			return errors.New("corrupt footer frame envelopes")
		}
	}
	// Optional per-frame open values: absent in older segments, whose
	// frames decode as unknown (never pruned by them).
	if c.Len() > 0 {
		for i := range ents {
			o := &ents[i].ref.Open
			switch o.Kind = state.OpenKind(c.U8()); o.Kind {
			case state.OpenUnknown, state.OpenNone, state.OpenOther:
			case state.OpenNumeric:
				vb, ok := c.Take(8)
				if !ok {
					return fmt.Errorf("corrupt footer open value %d", i)
				}
				o.V = math.Float64frombits(binary.LittleEndian.Uint64(vb))
			default:
				return fmt.Errorf("corrupt footer open value %d", i)
			}
		}
		if c.Err() != nil {
			return errors.New("corrupt footer open values")
		}
	}
	r.index = make(map[element.FactKey]frameRef, len(ents))
	for _, e := range ents {
		r.index[e.key] = e.ref
	}
	return nil
}

// garbage scores the segment for compaction victim selection: dead
// frames (a newer segment owns the key) plus live tombstones, as a
// fraction of all frames.
func (r *reader) garbage() float64 {
	n := len(r.index)
	if n == 0 {
		return 0
	}
	g := n - int(r.live.Load()) + r.tombs
	if g > n {
		g = n
	}
	return float64(g) / float64(n)
}

// LoadFrame preads and decodes the lineage frame at off for the RAM
// store's cold loader, counting each frame read into Info.ScanFrames.
// Loads may run concurrently, from scan workers and point reads alike:
// readLineage preads, so they never seek-contend. Implements
// state.FrameSource.
func (r *reader) LoadFrame(key element.FactKey, off int64, buf *state.ColdBuf) ([]*element.Fact, error) {
	records, err := r.readLineage(key, off, buf)
	if err == nil {
		r.frames.Add(1)
	}
	return records, err
}

// readLineage preads the lineage frame at off, which must hold key, and
// decodes it into dst (see decodeLineage).
func (r *reader) readLineage(key element.FactKey, off int64, dst *state.ColdBuf) ([]*element.Fact, error) {
	payload, err := frame.Read(r.f, off, r.size, &dst.Frame)
	if err != nil {
		return nil, fmt.Errorf("segment: %s @%d: %w", r.path, off, err)
	}
	return r.decodeLineage(payload, off, key, dst)
}

// image reads the whole segment file into memory — the bulk recovery
// path: decoding every frame from one sequential read beats a pread
// per lineage by orders of magnitude in syscalls.
func (r *reader) image() ([]byte, error) {
	img, err := r.fs.ReadFile(r.path)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: image: %w", r.path, err)
	}
	return img, nil
}

// readLineageImage decodes (with checksum verification) the lineage
// frame at off, which must hold key, from a full-file image into dst.
func (r *reader) readLineageImage(img []byte, key element.FactKey, off int64, dst *state.ColdBuf) ([]*element.Fact, error) {
	payload, err := frame.At(img, off)
	if err != nil {
		return nil, fmt.Errorf("segment: %s @%d: %w", r.path, off, err)
	}
	return r.decodeLineage(payload, off, key, dst)
}

// decodeLineage parses a checksum-verified lineage frame payload into
// dst, reusing its facts, and returns the records. The frame must hold
// key: its key bytes are compared, and the facts carry key's own
// strings. No string aliases the payload: a source equal to the
// previous record's (for the first record, to the one its slot held)
// is shared, any other copied. A gather reusing one dst across frames
// therefore allocates only for new sources and string values; a caller
// that keeps the records passes a fresh dst.
func (r *reader) decodeLineage(payload []byte, off int64, key element.FactKey, dst *state.ColdBuf) ([]*element.Fact, error) {
	c := frame.NewCursor(payload)
	if c.U8() != kindLineage {
		return nil, fmt.Errorf("segment: %s @%d: wrong frame kind", r.path, off)
	}
	entity, attr := c.StrReuse(key.Entity), c.StrReuse(key.Attribute)
	n := int(c.Uvarint())
	if c.Err() != nil || n < 0 || n > len(payload) {
		return nil, fmt.Errorf("segment: %s @%d: corrupt frame", r.path, off)
	}
	if entity != key.Entity || attr != key.Attribute {
		return nil, fmt.Errorf("segment: %s @%d: frame holds %s, index says %s",
			r.path, off, element.FactKey{Entity: entity, Attribute: attr}, key)
	}
	if cap(dst.Facts) < n || cap(dst.Records) < n {
		dst.Facts = make([]element.Fact, n)
		dst.Records = make([]*element.Fact, n)
	}
	facts, records := dst.Facts[:n], dst.Records[:n]
	for i := range facts {
		ins, ok := c.Take(4 * 8)
		if !ok {
			return nil, fmt.Errorf("segment: %s @%d: corrupt record %d", r.path, off, i)
		}
		f := &facts[i]
		f.Entity, f.Attribute = key.Entity, key.Attribute
		f.Validity = temporal.NewInterval(
			temporal.Instant(binary.LittleEndian.Uint64(ins)),
			temporal.Instant(binary.LittleEndian.Uint64(ins[8:])))
		f.RecordedAt = temporal.Instant(binary.LittleEndian.Uint64(ins[16:]))
		f.SupersededAt = temporal.Instant(binary.LittleEndian.Uint64(ins[24:]))
		src := f.Source
		if i > 0 {
			src = facts[i-1].Source
		}
		f.Derived, f.Source = c.Provenance(src)
		c.Value(&f.Value)
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("segment: %s @%d: record %d: %w", r.path, off, i, err)
		}
		records[i] = f
	}
	return records, nil
}
