package state

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/element"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

// Log is the write-ahead log of a durable directory: an append-only
// chain of numbered WAL files recording store mutations, sufficient to
// rebuild the full bitemporal state (all versions, not just current) by
// replay. With the segment backend it gives the state repository the
// durability of the "temporal database" the paper sketches in §3.3.
// RecoverWALDir is the only constructor: it replays an existing chain
// (or starts an empty one) and returns the Log continuing it.
//
// Records are gob-encoded logRecord values, each sealed with a crc32c
// of its semantic fields: gob framing detects truncation but not bit rot
// that still decodes, so recovery verifies every summed record and fails
// loudly on a mismatch. Logs written before checksums existed (records
// without the Summed flag) replay unverified, unchanged.
//
// The sharded store commits mutations under per-shard locks, so the log
// serializes concurrent appends itself through a single-appender
// channel: whoever holds the channel's token owns the encoder, and the
// token hand-off defines one total append order. Every record carries
// its own transaction time (a Replace's application time is its
// transaction time), so any interleaving the appender admits replays to
// the identical bitemporal state.
//
// Replace writes are group-committed: each is staged in token order and
// Commit encodes the stage as one opPutBatch frame. Every other
// operation under the token — a non-put record, Sync, TruncateBefore,
// Close — commits the stage first, so records reach the file in append
// order. A staged write is durable once a Commit (or Sync or Close)
// returns; Abandon drops the stage, as a crash does. Len counts writes
// (a frame weighs its puts), so flush cadence does not depend on how
// writes were framed.
//
// The chain rotates to a fresh file at a byte threshold. It supports
// the durability handoff of the segment backend: TruncateBefore unlinks
// whole sealed files the flush cut covers — O(files dropped) off the
// appender token, never an in-place rewrite — and Sync flushes the
// active file before a manifest commit (sealed files are synced when
// they seal).
type Log struct {
	enc *gob.Encoder
	// n counts the writes in the chain's files: one per record, len(Puts)
	// per opPutBatch frame. Staged writes are not in it (see Len).
	n int
	// stage holds the Replace writes awaiting Commit, in append order.
	// Its backing array is reused across commits.
	stage []BatchPut
	// path and file are the active WAL file; Sync fsyncs it, Close
	// closes it. All file operations go through fs — the
	// fault-injectable seam (vfs.OS in production).
	path string
	file vfs.File
	fs   vfs.FS
	// dir is the directory the numbered wal files live in, seq the
	// active file's sequence number, and sealed the older read-only files
	// still holding records past the durable cut, oldest first. The
	// active file's byte count (via cw), write count, and max
	// transaction time drive rotation and whole-file truncation.
	dir          string
	seq          uint64
	rotateBytes  int64
	cw           *countWriter
	sealed       []sealedWAL
	activeRecs   int
	activeMaxTx  temporal.Instant
	filesDropped int
	dropFails    int
	// err poisons the log: a failed deferred rewrite (RecoverWALDir)
	// surfaces from every subsequent operation.
	err error
	// onAppendErr, when set, is offered every append failure (and every
	// append attempt on a poisoned log). Returning true acknowledges the
	// failure and switches the log into dropping mode; returning false
	// propagates the error to the writer. The handler runs under the
	// appender token on the writer's goroutine, so it must only do
	// atomic/channel work — no locks shared with writers.
	onAppendErr func(error) bool
	// dropping marks degraded mode: writes are acknowledged and
	// discarded (counted in dropped) until Rearm starts a fresh file.
	// A failed gob encode leaves the stream unusable mid-message, so
	// there is no per-record recovery — the whole file is forfeit and
	// only a flush elsewhere can restore durability.
	dropping bool
	dropped  int
	// appender is the single-appender channel: a one-slot token guarding
	// enc, n, stage, path, file, and err. Acquire by sending, release by
	// receiving. RecoverWALDir hands out a Log whose token is pre-held by
	// its background tail rewrite, so the first append transparently
	// waits for the rewrite instead of the cold start paying for it.
	appender chan struct{}
}

// DefaultWALRotateBytes is the default size threshold at which a
// segmented WAL seals its active file and rotates to the next one.
const DefaultWALRotateBytes = 1 << 20

// sealedWAL describes one read-only file of a segmented WAL chain:
// sealed at rotation (synced, closed), droppable by TruncateBefore once
// the durable cut reaches its newest record.
type sealedWAL struct {
	path  string
	maxTx temporal.Instant // max transaction time over the file's records
	recs  int              // writes the file still contributes to the tail
}

// countWriter counts the bytes reaching the active WAL file so rotation
// can trigger on size without stat calls. Accessed only under the
// appender token.
type countWriter struct {
	f vfs.File
	n int64
}

func (w *countWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

// walFileName renders the name of the numbered WAL file with the given
// sequence number. The legacy single-file name "wal.log" sorts as
// sequence 0, so directories written before the WAL was segmented
// recover as a one-file chain.
func walFileName(seq uint64) string { return fmt.Sprintf("wal.%08d", seq) }

// parseWALName reports whether name is part of a WAL chain and its
// sequence number. Temp files (wal.*.tmp) are rewrite debris, not chain
// members.
func parseWALName(name string) (uint64, bool) {
	if name == "wal.log" {
		return 0, true
	}
	rest, ok := strings.CutPrefix(name, "wal.")
	if !ok || rest == "" {
		return 0, false
	}
	var seq uint64
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// IsWALFileName reports whether name names a WAL chain file — a
// numbered wal.NNNNNNNN member or the legacy wal.log. Directory owners
// (the segment backend's orphan sweep) use it to keep their hands off
// the chain.
func IsWALFileName(name string) bool {
	_, ok := parseWALName(name)
	return ok
}

type opKind uint8

const (
	// opPut is one Replace, written before Replaces were staged into
	// opPutBatch frames; it is only replayed.
	opPut opKind = iota
	// opAssert and opRetract were written by the removed Store.Assert
	// and Store.Retract; they are only replayed (see applyLogRecord).
	opAssert
	opRetract
	// opPutBi and opDeleteBi are option-based bitemporal writes carrying
	// an explicit valid interval and transaction time.
	opPutBi
	opDeleteBi
	// opPutBatch is a group-committed micro-batch of Replaces: one
	// framed record carries every write of the batch (see Store.PutBatch
	// and Log.Commit), so the WAL pays one append per batch instead of
	// one per element.
	opPutBatch
)

// logRecord is the wire format of one mutation.
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
	// distinguishes a computed checksum from the zero value old-format
	// records decode to, keeping replay compatible with logs written
	// before checksums existed.
	Summed bool
	Sum    uint32
}

// crcTable is the Castagnoli (crc32c) polynomial, hardware-accelerated
// on amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum renders the record's semantic fields into a canonical byte
// stream and returns its crc32c. The gob frame itself is not summed: gob
// emits type descriptors positionally, so the same record's bytes differ
// between streams (and across rewrites). Sum/Summed are excluded.
func (r *logRecord) checksum() uint32 {
	h := crc32.New(crcTable)
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

// verify checks a summed record against its checksum. Records from logs
// written before checksums (Summed false) pass unverified. Callers must
// verify before keepAfter, which trims opPutBatch frames in place.
func (r *logRecord) verify(n int) error {
	if !r.Summed {
		return nil
	}
	if got := r.checksum(); got != r.Sum {
		return fmt.Errorf("state: log record %d: checksum mismatch (stored %08x, computed %08x)", n, r.Sum, got)
	}
	return nil
}

// reseal recomputes the checksum of a summed record whose Puts were
// trimmed in place by keepAfter, keeping the rewritten frame verifiable.
func (r *logRecord) reseal() {
	if r.Summed && r.Op == opPutBatch {
		r.Sum = r.checksum()
	}
}

// txTime returns the transaction time that orders rec for tail handoff:
// the instant a flush cut at or after it makes the record redundant.
// opPutBatch frames have no single time — their puts are filtered
// individually (see keepAfter).
func (r *logRecord) txTime() temporal.Instant {
	switch r.Op {
	case opAssert:
		return r.Start
	case opPutBi, opDeleteBi:
		return r.Tx
	default: // opPut, opRetract: application time
		return r.At
	}
}

// maxTxTime returns the newest transaction time rec carries: txTime for
// plain records, the max put time for an opPutBatch frame. A WAL file
// whose max over all records is at or before a flush cut is fully
// covered by the segments and can be dropped whole.
func (r *logRecord) maxTxTime() temporal.Instant {
	if r.Op != opPutBatch {
		return r.txTime()
	}
	t := temporal.MinInstant
	for i := range r.Puts {
		if r.Puts[i].At > t {
			t = r.Puts[i].At
		}
	}
	return t
}

// writes is the number of store writes rec carries: len(Puts) for an
// opPutBatch frame, one otherwise. The tail counters weigh records by
// it.
func (r *logRecord) writes() int {
	if r.Op == opPutBatch {
		return len(r.Puts)
	}
	return 1
}

// keepAfter reports whether rec still carries state newer than a flush
// cut at tt, trimming opPutBatch frames to their surviving puts in
// place. A frame fully covered by the cut (or a plain record at or
// before it) is dropped.
func (r *logRecord) keepAfter(tt temporal.Instant) bool {
	if r.Op != opPutBatch {
		return r.txTime() > tt
	}
	kept := r.Puts[:0]
	for _, p := range r.Puts {
		if p.At > tt {
			kept = append(kept, p)
		}
	}
	r.Puts = kept
	return len(kept) > 0
}

// Len reports the number of writes in the WAL tail, staged ones
// included: one per record, len(Puts) per opPutBatch frame.
func (l *Log) Len() int {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.n + len(l.stage)
}

// append serializes one record through the single-appender channel,
// committing the stage before it.
func (l *Log) append(rec logRecord) error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	if err := l.commitLocked(); err != nil {
		return err
	}
	return l.writeLocked(&rec)
}

// stagePut stages one Replace write for the next commit. Staging only
// fails on a poisoned log; a dropping log discards the write.
func (l *Log) stagePut(p *BatchPut) error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	if l.dropping {
		l.dropped++
		return nil
	}
	if l.err != nil {
		return l.failLocked(l.err, 1)
	}
	l.stage = append(l.stage, *p)
	return nil
}

// Commit writes the staged Replace writes as one opPutBatch frame. The
// frame is in the OS once Commit returns; Sync makes it durable against
// power loss. A failed commit leaves the store ahead of the log, as a
// failed PutBatch does.
func (l *Log) Commit() error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.commitLocked()
}

// commitLocked writes the stage, if any, and empties it for reuse.
// Called under the appender token.
func (l *Log) commitLocked() error {
	if len(l.stage) == 0 {
		return nil
	}
	err := l.writeLocked(&logRecord{Op: opPutBatch, Puts: l.stage})
	l.dropStageLocked()
	return err
}

// dropStageLocked empties the stage without writing it, clearing the
// entries so the reused array pins no values.
func (l *Log) dropStageLocked() {
	clear(l.stage)
	l.stage = l.stage[:0]
}

// writeLocked seals and encodes one record, updates the tail counters,
// and rotates at the size threshold. Called under the appender token.
func (l *Log) writeLocked(rec *logRecord) error {
	w := rec.writes()
	if l.dropping {
		l.dropped += w
		return nil
	}
	if l.err != nil {
		return l.failLocked(l.err, w)
	}
	rec.Summed = true
	rec.Sum = rec.checksum()
	if err := l.enc.Encode(rec); err != nil {
		return l.failLocked(err, w)
	}
	l.n += w
	l.activeRecs += w
	if t := rec.maxTxTime(); t > l.activeMaxTx {
		l.activeMaxTx = t
	}
	if l.cw.n >= l.rotateBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active WAL file and opens the next numbered
// one. Called under the appender token. The seal syncs the outgoing
// file, so every sealed file is on disk and Sync only ever touches the
// active file. A failed create keeps the current (synced) file active —
// rotation simply retries on a later append; a failed seal sync is an
// append-path durability failure and goes through the degraded-mode
// handler like any other.
func (l *Log) rotateLocked() error {
	if err := l.file.Sync(); err != nil {
		return l.failLocked(err, 1)
	}
	f, err := l.fs.Create(l.nextPath())
	if err != nil {
		return nil
	}
	l.file.Close()
	l.sealed = append(l.sealed, sealedWAL{path: l.path, maxTx: l.activeMaxTx, recs: l.activeRecs})
	l.activateLocked(f)
	return nil
}

// nextPath is the path of the file the chain rotates to next.
func (l *Log) nextPath() string { return filepath.Join(l.dir, walFileName(l.seq+1)) }

// activateLocked makes f — freshly created as the next numbered file —
// the active WAL file with a new encoder and empty tail counters.
// Called under the appender token.
func (l *Log) activateLocked(f vfs.File) {
	l.path, l.file = l.nextPath(), f
	l.seq++
	l.cw = &countWriter{f: f}
	l.enc = gob.NewEncoder(l.cw)
	l.activeRecs, l.activeMaxTx = 0, temporal.MinInstant
}

// failLocked offers an append failure to the handler. An acknowledged
// failure flips the log into dropping mode (counting the failed
// append's writes as dropped) and reports success to the writer — the
// store's RAM commit proceeds; durability is the degraded-mode flow's
// problem now.
func (l *Log) failLocked(err error, writes int) error {
	if l.onAppendErr != nil && l.onAppendErr(err) {
		l.dropping = true
		l.dropped += writes
		return nil
	}
	return err
}

// OnAppendError installs the append-failure handler (see Log.onAppendErr).
// Install before concurrent appends begin.
func (l *Log) OnAppendError(h func(error) bool) {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	l.onAppendErr = h
}

// Dropping reports whether the log is in dropping (degraded) mode.
func (l *Log) Dropping() bool {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.dropping
}

// Dropped reports how many writes were acknowledged and discarded
// while dropping.
func (l *Log) Dropped() int {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.dropped
}

// Rearm replaces a dropping (or poisoned) log's whole chain with a fresh
// empty file and encoder, clearing dropping mode. The records the old
// file held, the stage, and every write dropped since are NOT recovered
// here: the caller must immediately flush the full RAM state to the durable
// backend, pinned at a cut taken AFTER Rearm returns, so everything the
// discarded WAL covered is captured elsewhere before new appends rely
// on the fresh file. The dropped count is kept for observability.
func (l *Log) Rearm() error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	// The whole chain is forfeit. Open the fresh file first so a failed
	// create leaves the old chain untouched, then drop every old file
	// best-effort: one left behind only holds records the caller's
	// full-state flush is about to cover, and recovery filters those by
	// the durable cut.
	f, err := l.fs.Create(l.nextPath())
	if err != nil {
		return err
	}
	for _, sf := range l.sealed {
		l.dropFileLocked(sf.path)
	}
	l.sealed = nil
	if l.file != nil { // nil when a failed recovery rewrite poisoned the log
		l.file.Close()
		l.dropFileLocked(l.path)
	}
	l.activateLocked(f)
	l.dropStageLocked()
	l.n = 0
	l.err = nil
	l.dropping = false
	return nil
}

// dropFileLocked unlinks one WAL file best-effort, counting the outcome.
func (l *Log) dropFileLocked(path string) bool {
	if l.fs.Remove(path) != nil {
		l.dropFails++
		return false
	}
	l.filesDropped++
	return true
}

// Close commits the stage and closes the active WAL file.
func (l *Log) Close() error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	if l.err != nil {
		return l.err
	}
	err := l.commitLocked()
	return errors.Join(err, l.file.Close())
}

// Abandon closes the active WAL file without committing the stage: the
// staged writes are lost, as in a process crash. It backs the segment
// backend's crash simulation.
func (l *Log) Abandon() {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	l.dropStageLocked()
	if l.file != nil { // nil when a failed recovery rewrite poisoned the log
		l.file.Close()
	}
}

// Sync commits the stage and flushes the active WAL file to stable
// storage. The segment backend calls it before committing a manifest,
// so the WAL tail the manifest's durable cut depends on is on disk
// first.
func (l *Log) Sync() error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	if l.err != nil {
		return l.err
	}
	if err := l.commitLocked(); err != nil {
		return err
	}
	return l.file.Sync()
}

// TruncateBefore hands the WAL prefix a durability flush at cut tt has
// made redundant back to the filesystem, by whole-file drops only: sealed files whose newest record is at or
// before the cut are unlinked — O(files dropped) off the appender
// token, no record is ever rewritten in place — and files straddling
// the cut stay whole (recovery filters their pre-cut records by the
// manifest's durable cut anyway). An active file fully covered by the
// cut rotates out immediately rather than waiting for the size
// threshold, so the tail length Len reports stays honest. A failed
// unlink keeps the file in the chain (counted in DropFailures, retried
// at the next cut); recovery tolerates redundant covered files.
func (l *Log) TruncateBefore(tt temporal.Instant) error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	if l.err != nil {
		return l.err
	}
	if err := l.commitLocked(); err != nil {
		return err
	}
	kept := l.sealed[:0]
	for _, sf := range l.sealed {
		if sf.maxTx > tt || !l.dropFileLocked(sf.path) {
			kept = append(kept, sf)
			continue
		}
		l.n -= sf.recs
	}
	l.sealed = kept
	if l.activeRecs > 0 && l.activeMaxTx <= tt && !l.dropping {
		f, err := l.fs.Create(l.nextPath())
		if err != nil {
			return nil // keep the covered file active; harmless
		}
		old := l.path
		l.file.Close()
		l.n -= l.activeRecs
		l.activateLocked(f)
		// A covered file left behind on a failed unlink is filtered by
		// the cut at recovery and dropped then.
		l.dropFileLocked(old)
	}
	return nil
}

// Files reports how many files the WAL chain currently spans (sealed
// plus active).
func (l *Log) Files() int {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return len(l.sealed) + 1
}

// DroppedFiles reports how many WAL files truncation (or Rearm) has
// unlinked over the log's lifetime.
func (l *Log) DroppedFiles() int {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.filesDropped
}

// DropFailures reports how many WAL-file unlinks failed (the files stay
// in the chain and are retried at the next cut).
func (l *Log) DropFailures() int {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.dropFails
}

// rewriteLogFile writes records to a temp file next to path, syncs it,
// and renames it over path. It returns the still-open file positioned
// for appends together with the byte-counting writer and the encoder
// that wrote it: a gob stream is one encoder's output, so the log MUST
// keep appending through this encoder — starting a fresh one on the
// same file would begin a second stream a single replay Decoder rejects
// ("duplicate type received").
func rewriteLogFile(fsys vfs.FS, path string, records []logRecord) (vfs.File, *countWriter, *gob.Encoder, error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("state: rewrite log: %w", err)
	}
	cw := &countWriter{f: f}
	enc := gob.NewEncoder(cw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			f.Close()
			fsys.Remove(tmp)
			return nil, nil, nil, fmt.Errorf("state: rewrite log record %d: %w", i, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, nil, nil, fmt.Errorf("state: rewrite log: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, nil, nil, fmt.Errorf("state: rewrite log: %w", err)
	}
	fsys.SyncDir(filepath.Dir(path))
	return f, cw, enc, nil
}

func (l *Log) appendPutBi(f *element.Fact) error {
	return l.append(logRecord{
		Op: opPutBi, Entity: f.Entity, Attr: f.Attribute, Value: f.Value,
		Start: f.Validity.Start, End: f.Validity.End, Tx: f.RecordedAt,
		Derived: f.Derived, Source: f.Source,
	})
}

func (l *Log) appendDelete(entity, attr string, w temporal.Interval, tx temporal.Instant) error {
	return l.append(logRecord{
		Op: opDeleteBi, Entity: entity, Attr: attr,
		Start: w.Start, End: w.End, Tx: tx,
	})
}

func (l *Log) appendPutBatch(puts []BatchPut) error {
	return l.append(logRecord{Op: opPutBatch, Puts: puts})
}

// applyLogRecord re-applies one decoded non-put record through apply;
// recovery group-applies stream-append puts (opPut, opPutBatch) through
// PutBatch instead. opAssert and opRetract are no longer written, but
// older logs still replay: each was logged only after passing its
// no-overlap / has-an-open-version check, so the equivalent bitemporal
// write rebuilds the same state.
func (s *Store) applyLogRecord(rec *logRecord) error {
	switch rec.Op {
	case opAssert:
		return s.apply(writeReq{
			entity: rec.Entity, attr: rec.Attr, value: rec.Value,
			validFrom: rec.Start, hasValidFrom: true,
			validTo: rec.End, hasValidTo: true,
			tx: rec.Start, hasTx: true,
			derived: rec.Derived, source: rec.Source,
		})
	case opRetract:
		return s.apply(writeReq{
			entity: rec.Entity, attr: rec.Attr, isDelete: true,
			validFrom: rec.At, hasValidFrom: true, tx: rec.At, hasTx: true,
		})
	case opPutBi:
		return s.apply(writeReq{
			entity: rec.Entity, attr: rec.Attr, value: rec.Value,
			validFrom: rec.Start, hasValidFrom: true,
			validTo: rec.End, hasValidTo: true,
			tx: rec.Tx, hasTx: true,
			derived: rec.Derived, source: rec.Source,
		})
	case opDeleteBi:
		return s.apply(writeReq{
			entity: rec.Entity, attr: rec.Attr, isDelete: true,
			validFrom: rec.Start, hasValidFrom: true,
			validTo: rec.End, hasValidTo: true,
			tx: rec.Tx, hasTx: true,
		})
	}
	return fmt.Errorf("state: unknown op %d", rec.Op)
}

// RecoverWALDir replays the WAL chain in dir into s — only records
// carrying state newer than the durable cut (opPutBatch frames trimmed
// to their surviving puts), in file order — and returns a Log
// continuing the chain plus the number of writes replayed (a frame
// counts its surviving puts). This is the recovery half of the segment
// backend's handoff: segments restore the cut, RecoverWALDir replays
// what the cut does not cover. Pass cut = MinInstant (and a chain never
// truncated) for a full WAL-only recovery.
//
// The chain is every wal.NNNNNNNN file plus a legacy wal.log (which
// sorts oldest, so a flat log written before the WAL was segmented
// recovers as chain member 0), replayed oldest first with per-record
// crc32c verification. An unexpected EOF is tolerated only in the
// newest file — the tail a crash cut mid-append: gob messages are
// length-prefixed, so a torn append leaves a message outrunning the
// file and replay stops at the last whole record. Anywhere earlier, or
// any other decode error, is corruption: records after it are
// unreachable in an unframed gob stream, so recovery fails loudly.
//
// Runs of Replace records apply through PutBatch: the store is empty of
// observers during recovery and Replaces on distinct keys
// commute, so the group commit reproduces the identical bitemporal
// state at a fraction of the per-record locking — the WAL half of the
// fast cold start, as LoadLineage is the segment half.
//
// Fully covered older files are unlinked and the newest file is
// compacted to its surviving records (atomic rewrite) in the
// background, under the returned Log's pre-held appender token, so the
// cold start does not wait for either. Files straddling the cut stay
// whole as sealed chain members. An empty directory yields a fresh
// one-file chain.
func RecoverWALDir(dir string, s *Store, cut temporal.Instant, rotateBytes int64) (*Log, int, error) {
	return RecoverWALDirFS(vfs.OS, dir, s, cut, rotateBytes)
}

// RecoverWALDirFS is RecoverWALDir over an explicit filesystem seam.
func RecoverWALDirFS(fsys vfs.FS, dir string, s *Store, cut temporal.Instant, rotateBytes int64) (*Log, int, error) {
	if rotateBytes <= 0 {
		rotateBytes = DefaultWALRotateBytes
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("state: recover wal dir: %w", err)
	}
	type chainFile struct {
		path  string
		seq   uint64
		maxTx temporal.Instant // over ALL decoded records, kept or not
		kept  int
	}
	var files []chainFile
	for _, ent := range ents {
		if seq, ok := parseWALName(ent.Name()); ok {
			files = append(files, chainFile{
				path: filepath.Join(dir, ent.Name()), seq: seq, maxTx: temporal.MinInstant,
			})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })

	newSegmented := func(path string, seq uint64) *Log {
		return &Log{
			path: path, fs: fsys, appender: make(chan struct{}, 1),
			dir: dir, seq: seq, rotateBytes: rotateBytes,
			activeMaxTx: temporal.MinInstant,
		}
	}
	if len(files) == 0 {
		path := filepath.Join(dir, walFileName(1))
		f, err := fsys.Create(path)
		if err != nil {
			return nil, 0, fmt.Errorf("state: create wal: %w", err)
		}
		l := newSegmented(path, 1)
		l.file = f
		l.cw = &countWriter{f: f}
		l.enc = gob.NewEncoder(l.cw)
		return l, 0, nil
	}

	var (
		lastKept []logRecord
		pending  []BatchPut // run of Replace records awaiting group apply
		total    int
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := s.PutBatch(pending)
		pending = pending[:0]
		return err
	}
	for i := range files {
		cf := &files[i]
		last := i == len(files)-1
		src, err := fsys.Open(cf.path)
		if err != nil {
			return nil, 0, fmt.Errorf("state: recover wal: %w", err)
		}
		dec := gob.NewDecoder(io.NewSectionReader(src, 0, 1<<62))
		decoded := 0
		for {
			var rec logRecord
			if err := dec.Decode(&rec); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				if errors.Is(err, io.ErrUnexpectedEOF) && last {
					// A torn final append in the newest file — the tail a
					// crash cut mid-write. Anywhere earlier the file was
					// sealed whole, so short bytes are corruption.
					break
				}
				src.Close()
				return nil, 0, fmt.Errorf("state: recover wal %s record %d: %w", filepath.Base(cf.path), decoded, err)
			}
			decoded++
			if err := rec.verify(decoded - 1); err != nil {
				src.Close()
				return nil, 0, fmt.Errorf("state: recover wal %s: %w", filepath.Base(cf.path), err)
			}
			if t := rec.maxTxTime(); t > cf.maxTx {
				cf.maxTx = t
			}
			if !rec.keepAfter(cut) {
				continue
			}
			rec.reseal()
			cf.kept += rec.writes()
			total += rec.writes()
			if last {
				lastKept = append(lastKept, rec)
			}
			switch rec.Op {
			case opPut:
				pending = append(pending, BatchPut{
					Entity: rec.Entity, Attr: rec.Attr, Value: rec.Value, At: rec.At,
				})
			case opPutBatch:
				pending = append(pending, rec.Puts...)
			default:
				applyErr := flush()
				if applyErr == nil {
					applyErr = s.applyLogRecord(&rec)
				}
				if applyErr != nil {
					src.Close()
					return nil, 0, fmt.Errorf("state: recover wal %s record %d: %w", filepath.Base(cf.path), decoded-1, applyErr)
				}
			}
		}
		src.Close()
	}
	if err := flush(); err != nil {
		return nil, 0, fmt.Errorf("state: recover wal: %w", err)
	}

	// Assemble the surviving chain: covered older files are dropped,
	// straddling ones sealed, and the newest file rewritten to exactly
	// its kept records — all deferred to the background under the
	// pre-held appender token: the first append (or Sync, TruncateBefore,
	// Close) waits for it, and a rewrite failure poisons the log.
	lastF := files[len(files)-1]
	l := newSegmented(lastF.path, lastF.seq)
	var drop []string
	for _, cf := range files[:len(files)-1] {
		if cf.kept == 0 {
			drop = append(drop, cf.path)
			continue
		}
		l.sealed = append(l.sealed, sealedWAL{path: cf.path, maxTx: cf.maxTx, recs: cf.kept})
	}
	l.appender <- struct{}{}
	go func() {
		defer func() { <-l.appender }()
		for _, p := range drop {
			l.dropFileLocked(p)
		}
		f, cw, enc, err := rewriteLogFile(fsys, lastF.path, lastKept)
		if err != nil {
			l.err = err
			return
		}
		l.file, l.cw, l.enc = f, cw, enc
		l.n = total
		l.activeRecs = lastF.kept
		if len(lastKept) > 0 {
			l.activeMaxTx = lastF.maxTx
		}
	}()
	return l, total, nil
}

// snapshotRecord is the wire format of one fact record in a cut dump.
type snapshotRecord struct {
	Entity       string
	Attr         string
	Value        element.Value
	Start        temporal.Instant
	End          temporal.Instant
	RecordedAt   temporal.Instant
	SupersededAt temporal.Instant
	Derived      bool
	Source       string
}

// WriteSnapshot dumps every record in the store to w as a gob stream —
// including versions superseded by retroactive corrections — in
// deterministic key order. It is the canonical encoding of a bitemporal
// cut: two stores holding the same state dump identical bytes, which is
// how the equivalence suites compare a recovered store against its
// oracle. It is an export format, not a restore format (durability is
// the WAL chain plus segments). The record set is one consistent cut
// pinned at the transaction clock's high-water mark, gathered lock-free
// from the published heads — dumping a large store does not stall
// writers.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return s.writeSnapshotAt(w, s.pinBarrier())
}

// writeSnapshotAt serializes the cut believed at tt (Snapshot.WriteSnapshot
// pins a handle's instant; WriteSnapshot pins the clock).
func (s *Store) writeSnapshotAt(w io.Writer, tt temporal.Instant) error {
	enc := gob.NewEncoder(w)
	facts := s.allRecordsAt(tt)
	if err := enc.Encode(len(facts)); err != nil {
		return fmt.Errorf("state: snapshot header: %w", err)
	}
	for _, f := range facts {
		rec := snapshotRecord{
			Entity: f.Entity, Attr: f.Attribute, Value: f.Value,
			Start: f.Validity.Start, End: f.Validity.End,
			RecordedAt: f.RecordedAt, SupersededAt: f.SupersededAt,
			Derived: f.Derived, Source: f.Source,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("state: snapshot record: %w", err)
		}
	}
	return nil
}

// allRecordsAt clones every record of the cut believed at tt, in
// deterministic key order, preserving per-lineage recording order. The
// gather is lock-free and the per-lineage cut reconstruction is
// recordsAt's: records recorded after the pin are excluded, and a belief
// interval closed after the pin is restored to open — the clone set is
// exactly the bitemporal state as of tt.
func (s *Store) allRecordsAt(tt temporal.Instant) []*element.Fact {
	cfg := readCfg{txAt: tt, hasTxAt: true, allVersions: true}
	return s.gather(cfg, func(h *head, out []*element.Fact) []*element.Fact {
		return recordsAt(h, tt, out)
	})
}
