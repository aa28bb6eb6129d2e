package state

// The gob-era WAL reader. Builds before the framed WAL wrote each file
// as one gob stream of logRecord values; recovery still replays such
// files, and the background tail rewrite re-encodes a gob newest file as
// frames, so a chain sheds the format as its files are truncated away.
// This reader is kept for one release.

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/element"
	"repro/internal/temporal"
)

// logRecord is the gob wire format of one mutation.
type logRecord struct {
	Op      opKind
	Entity  string
	Attr    string
	Value   element.Value
	At      temporal.Instant // Replace/Retract application time
	Start   temporal.Instant // Assert / bitemporal validity
	End     temporal.Instant
	Tx      temporal.Instant // bitemporal transaction time
	Derived bool
	Source  string
	// Puts carries the writes of one opPutBatch frame; empty otherwise.
	Puts []BatchPut
	// Sum is the crc32c of the record's semantic fields (see checksum),
	// guarding against bit rot that still gob-decodes. Summed
	// distinguishes a computed checksum from the zero value records
	// written before checksums existed decode to; those replay
	// unverified.
	Summed bool
	Sum    uint32
}

// checksum renders the record's semantic fields into a canonical byte
// stream and returns its crc32c (gob emits type descriptors
// positionally, so the gob bytes themselves were never summed).
// Sum/Summed are excluded.
func (r *logRecord) checksum() uint32 {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		io.WriteString(h, s)
	}
	writeVal := func(v element.Value) {
		b, _ := v.MarshalBinary()
		writeU64(uint64(len(b)))
		h.Write(b)
	}
	h.Write([]byte{byte(r.Op)})
	writeStr(r.Entity)
	writeStr(r.Attr)
	writeVal(r.Value)
	writeU64(uint64(r.At))
	writeU64(uint64(r.Start))
	writeU64(uint64(r.End))
	writeU64(uint64(r.Tx))
	if r.Derived {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	writeStr(r.Source)
	writeU64(uint64(len(r.Puts)))
	for i := range r.Puts {
		p := &r.Puts[i]
		writeStr(p.Entity)
		writeStr(p.Attr)
		writeVal(p.Value)
		writeU64(uint64(p.At))
	}
	return h.Sum32()
}

// walRecord converts the record to its framed equivalent. The retired
// kinds map onto the writes they were logged for: opPut is a one-put
// batch, opAssert a bitemporal put recorded at its validity start,
// opRetract a delete from its application time on. Each was logged only
// after passing its no-overlap / has-an-open-version check, so the
// equivalent write rebuilds the same state.
func (r *logRecord) walRecord() walRecord {
	switch r.Op {
	case opPut:
		return walRecord{op: opPutBatch, puts: []BatchPut{
			{Entity: r.Entity, Attr: r.Attr, Value: r.Value, At: r.At},
		}}
	case opPutBatch:
		return walRecord{op: opPutBatch, puts: r.Puts}
	case opAssert:
		return walRecord{
			op: opPutBi, entity: r.Entity, attr: r.Attr, value: r.Value,
			start: r.Start, end: r.End, tx: r.Start,
			derived: r.Derived, source: r.Source,
		}
	case opRetract:
		return walRecord{
			op: opDeleteBi, entity: r.Entity, attr: r.Attr,
			start: r.At, end: temporal.Forever, tx: r.At,
		}
	}
	return walRecord{
		op: r.Op, entity: r.Entity, attr: r.Attr, value: r.Value,
		start: r.Start, end: r.End, tx: r.Tx,
		derived: r.Derived, source: r.Source,
	}
}

// replayGob streams one gob-era WAL file through handle, verifying each
// summed record. gob messages are length-prefixed, so a torn final
// append leaves a message outrunning the file: tolerated in the newest
// file, corruption anywhere else. Any other decode error is corruption
// too — records after it are unreachable in an unframed gob stream.
func replayGob(src io.Reader, last bool, handle func(*walRecord) error) error {
	dec := gob.NewDecoder(src)
	for n := 0; ; n++ {
		var rec logRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) || (last && errors.Is(err, io.ErrUnexpectedEOF)) {
				return nil
			}
			return fmt.Errorf("record %d: %w", n, err)
		}
		if rec.Summed {
			if got := rec.checksum(); got != rec.Sum {
				return fmt.Errorf("log record %d: checksum mismatch (stored %08x, computed %08x)", n, rec.Sum, got)
			}
		}
		w := rec.walRecord()
		if err := handle(&w); err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
	}
}
