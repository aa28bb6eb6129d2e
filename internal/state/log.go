package state

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/element"
	"repro/internal/frame"
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
// A WAL file is the magic "SWL1" followed by internal/frame frames
// (len:u32 crc32c:u32 payload), one record per frame; see appendRecord
// for the payloads. Frames are self-delimiting, so replay detects a torn
// final append by length and bit rot by checksum, and fails loudly on
// the latter. Files without the magic are gob streams written by older
// builds; they replay through the reader in log_gob.go.
//
// The sharded store commits mutations under per-shard locks, so the log
// serializes concurrent appends itself through a single-appender
// channel: whoever holds the channel's token owns the file, and the
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
	// n counts the writes in the chain's files: one per record, len(Puts)
	// per opPutBatch frame. Staged writes are not in it (see Len).
	n int
	// appended counts every write the log has accepted, staged ones
	// included: unlike n, truncation never lowers it, and Appended
	// reads it without the appender token.
	appended atomic.Int64
	// stage holds the Replace writes awaiting Commit, in append order.
	// Its backing array is reused across commits.
	stage []BatchPut
	// buf is the encode buffer every write reuses: one frame (plus the
	// file magic when the frame opens the file) reaches the file in one
	// Write.
	buf []byte
	// path and file are the active WAL file; Sync fsyncs it, Close
	// closes it. All file operations go through fs — the
	// fault-injectable seam (vfs.OS in production).
	path string
	file vfs.File
	fs   vfs.FS
	// dir is the directory the numbered wal files live in, seq the
	// active file's sequence number, and sealed the older read-only files
	// still holding records past the durable cut, oldest first. The
	// active file's byte count, write count, and max transaction time
	// drive rotation and whole-file truncation.
	dir          string
	seq          uint64
	rotateBytes  int64
	size         int64
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
	// A failed write may have left part of a frame at the end of the
	// file, and after a failed fsync the kernel may have dropped dirty
	// pages, so what the file holds is unknown: a frame appended after
	// it could sit behind bytes replay reads as a torn tail and never be
	// reached. There is no per-write recovery — the whole file is
	// forfeit and only a flush elsewhere can restore durability.
	dropping bool
	dropped  int
	// appender is the single-appender channel: a one-slot token guarding
	// the file and every field above. Acquire by sending, release by
	// receiving. RecoverWALDir hands out a Log whose token is pre-held by
	// its background tail rewrite, so the first append transparently
	// waits for the rewrite instead of the cold start paying for it.
	appender chan struct{}
}

// DefaultWALRotateBytes is the default size threshold at which a
// segmented WAL seals its active file and rotates to the next one.
const DefaultWALRotateBytes = 1 << 20

// walMagic opens every framed WAL file. The gob streams older builds
// wrote begin with the 0xFF that prefixes a logRecord type definition's
// length, so the first byte tells the formats apart.
const walMagic = "SWL1"

// sealedWAL describes one read-only file of a segmented WAL chain:
// sealed at rotation (synced, closed), droppable by TruncateBefore once
// the durable cut reaches its newest record.
type sealedWAL struct {
	path  string
	maxTx temporal.Instant // max transaction time over the file's records
	recs  int              // writes the file still contributes to the tail
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
	// opPut, opAssert and opRetract appear only in gob-era files: opPut
	// was one Replace, written before Replaces were staged into
	// opPutBatch frames; opAssert and opRetract were written by the
	// removed Store.Assert and Store.Retract. The gob reader turns each
	// into its framed equivalent (see logRecord.walRecord).
	opPut opKind = iota
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

// minPutBytes is the smallest encoding of one opPutBatch put: two empty
// strings, an instant, and a one-byte value behind its length prefix.
// A put count above payload/minPutBytes is corruption, rejected before
// the puts are allocated.
const minPutBytes = 1 + 1 + 8 + 2

// walRecord is one decoded mutation: an opPutBatch frame's puts, or one
// bitemporal put (opPutBi) or delete (opDeleteBi).
type walRecord struct {
	op           opKind
	entity, attr string
	value        element.Value
	start, end   temporal.Instant // valid interval
	tx           temporal.Instant // transaction time
	derived      bool
	source       string
	puts         []BatchPut // opPutBatch only
}

// appendRecord appends r's frame payload to b:
//
//	record   := op:u8 body
//	putBatch := n:uvarint (entity attr at:i64 value)^n
//	putBi    := entity attr start:i64 end:i64 tx:i64 flags:u8 [source] value
//	deleteBi := entity attr start:i64 end:i64 tx:i64
//
// Strings and values are uvarint-prefixed, instants fixed-width little
// endian, and flags/source a frame.AppendProvenance.
func appendRecord(b []byte, r *walRecord) ([]byte, error) {
	b = append(b, byte(r.op))
	var err error
	switch r.op {
	case opPutBatch:
		b = binary.AppendUvarint(b, uint64(len(r.puts)))
		for i := range r.puts {
			p := &r.puts[i]
			b = frame.AppendString(b, p.Entity)
			b = frame.AppendString(b, p.Attr)
			b = frame.AppendInstant(b, p.At)
			if b, err = frame.AppendValue(b, p.Value); err != nil {
				return b, err
			}
		}
		return b, nil
	case opPutBi, opDeleteBi:
		b = frame.AppendString(b, r.entity)
		b = frame.AppendString(b, r.attr)
		b = frame.AppendInstant(b, r.start)
		b = frame.AppendInstant(b, r.end)
		b = frame.AppendInstant(b, r.tx)
		if r.op == opDeleteBi {
			return b, nil
		}
		b = frame.AppendProvenance(b, r.derived, r.source)
		return frame.AppendValue(b, r.value)
	}
	return b, fmt.Errorf("state: cannot frame op %d", r.op)
}

// decodeRecord parses one checksum-verified frame payload into r.
func decodeRecord(payload []byte, r *walRecord) error {
	c := frame.NewCursor(payload)
	r.op = opKind(c.U8())
	switch r.op {
	case opPutBatch:
		n := c.Uvarint()
		if c.Err() != nil || n > uint64(c.Len()/minPutBytes) {
			return errors.New("corrupt put count")
		}
		r.puts = make([]BatchPut, n)
		for i := range r.puts {
			p := &r.puts[i]
			p.Entity = c.Str()
			p.Attr = c.Str()
			p.At = c.Instant()
			c.Value(&p.Value)
		}
	case opPutBi, opDeleteBi:
		r.entity = c.Str()
		r.attr = c.Str()
		r.start = c.Instant()
		r.end = c.Instant()
		r.tx = c.Instant()
		if r.op == opPutBi {
			r.derived, r.source = c.Provenance(r.source)
			c.Value(&r.value)
		}
	default:
		return fmt.Errorf("unknown op %d", r.op)
	}
	if c.Err() == nil && c.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", c.Len())
	}
	return c.Err()
}

// maxTxTime returns the newest transaction time r carries: tx for a
// bitemporal record, the max put time for an opPutBatch frame. A WAL
// file whose max over all records is at or before a flush cut is fully
// covered by the segments and can be dropped whole.
func (r *walRecord) maxTxTime() temporal.Instant {
	if r.op != opPutBatch {
		return r.tx
	}
	t := temporal.MinInstant
	for i := range r.puts {
		t = max(t, r.puts[i].At)
	}
	return t
}

// writes is the number of store writes r carries: len(puts) for an
// opPutBatch frame, one otherwise. The tail counters weigh records by
// it.
func (r *walRecord) writes() int {
	if r.op == opPutBatch {
		return len(r.puts)
	}
	return 1
}

// keepAfter reports whether r still carries state newer than a flush
// cut at tt, trimming opPutBatch frames to their surviving puts in
// place. A frame fully covered by the cut (or a bitemporal record at or
// before it) is dropped.
func (r *walRecord) keepAfter(tt temporal.Instant) bool {
	if r.op != opPutBatch {
		return r.tx > tt
	}
	kept := r.puts[:0]
	for _, p := range r.puts {
		if p.At > tt {
			kept = append(kept, p)
		}
	}
	r.puts = kept
	return len(kept) > 0
}

// Len reports the number of writes in the WAL tail, staged ones
// included: one per record, len(Puts) per opPutBatch frame.
func (l *Log) Len() int {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	return l.n + len(l.stage)
}

// Appended reports how many writes the log has accepted since it was
// opened, staged ones included, counted like Len — but monotonic, so
// the difference of two readings is the writes in between, whatever
// truncation dropped. It never waits for the appender token.
func (l *Log) Appended() int64 { return l.appended.Load() }

// append serializes one record through the single-appender channel,
// committing the stage before it.
func (l *Log) append(rec walRecord) error {
	l.appender <- struct{}{}
	defer func() { <-l.appender }()
	l.appended.Add(int64(rec.writes()))
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
	l.appended.Add(1)
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
	err := l.writeLocked(&walRecord{op: opPutBatch, puts: l.stage})
	l.dropStageLocked()
	return err
}

// dropStageLocked empties the stage without writing it, clearing the
// entries so the reused array pins no values.
func (l *Log) dropStageLocked() {
	clear(l.stage)
	l.stage = l.stage[:0]
}

// writeLocked encodes one record as a frame into the reused buffer,
// writes it with one Write, updates the tail counters, and rotates at
// the size threshold. Called under the appender token. An encode error
// (a value of no known kind) writes nothing and is returned as is; a
// write error goes through the degraded-mode handler.
func (l *Log) writeLocked(rec *walRecord) error {
	w := rec.writes()
	if l.dropping {
		l.dropped += w
		return nil
	}
	if l.err != nil {
		return l.failLocked(l.err, w)
	}
	b := l.buf[:0]
	if l.size == 0 {
		b = append(b, walMagic...)
	}
	start := len(b)
	b, err := appendRecord(frame.Begin(b), rec)
	if err == nil {
		err = frame.Seal(b, start)
	}
	l.buf = b
	if err != nil {
		return err
	}
	n, err := l.file.Write(b)
	l.size += int64(n)
	if err != nil {
		return l.failLocked(err, w)
	}
	l.n += w
	l.activeRecs += w
	l.activeMaxTx = max(l.activeMaxTx, rec.maxTxTime())
	if l.size >= l.rotateBytes {
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
// the active WAL file with empty tail counters; its first write opens
// it with the magic. Called under the appender token.
func (l *Log) activateLocked(f vfs.File) {
	l.path, l.file = l.nextPath(), f
	l.seq++
	l.size = 0
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
// empty file, clearing dropping mode. The records the old file held, the
// stage, and every write dropped since are NOT recovered here: the
// caller must immediately flush the full RAM state to the durable
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

// rewriteLogFile writes records as a framed WAL file to a temp file next
// to path, syncs it, and renames it over path. It returns the still-open
// file positioned for appends and its size; an empty record set leaves
// an empty file, which the first append opens with the magic.
func rewriteLogFile(fsys vfs.FS, path string, records []walRecord) (vfs.File, int64, error) {
	var b []byte
	if len(records) > 0 {
		b = append(b, walMagic...)
	}
	for i := range records {
		start := len(b)
		var err error
		if b, err = appendRecord(frame.Begin(b), &records[i]); err == nil {
			err = frame.Seal(b, start)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("state: rewrite log record %d: %w", i, err)
		}
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, 0, fmt.Errorf("state: rewrite log: %w", err)
	}
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, 0, fmt.Errorf("state: rewrite log: %w", err)
	}
	fsys.SyncDir(filepath.Dir(path))
	return f, int64(len(b)), nil
}

func (l *Log) appendPutBi(f *element.Fact) error {
	return l.append(walRecord{
		op: opPutBi, entity: f.Entity, attr: f.Attribute, value: f.Value,
		start: f.Validity.Start, end: f.Validity.End, tx: f.RecordedAt,
		derived: f.Derived, source: f.Source,
	})
}

func (l *Log) appendDelete(entity, attr string, w temporal.Interval, tx temporal.Instant) error {
	return l.append(walRecord{
		op: opDeleteBi, entity: entity, attr: attr,
		start: w.Start, end: w.End, tx: tx,
	})
}

func (l *Log) appendPutBatch(puts []BatchPut) error {
	return l.append(walRecord{op: opPutBatch, puts: puts})
}

// applyRecord re-applies one decoded bitemporal record through apply;
// recovery group-applies opPutBatch puts through PutBatch instead.
func (s *Store) applyRecord(rec *walRecord) error {
	req := writeReq{
		entity: rec.entity, attr: rec.attr,
		validFrom: rec.start, hasValidFrom: true,
		validTo: rec.end, hasValidTo: true,
		tx: rec.tx, hasTx: true,
	}
	switch rec.op {
	case opPutBi:
		req.value, req.derived, req.source = rec.value, rec.derived, rec.source
	case opDeleteBi:
		req.isDelete = true
	default:
		return fmt.Errorf("state: unknown op %d", rec.op)
	}
	return s.apply(req)
}

// replayFrames streams one framed WAL file (past its magic) through fr,
// handing each record to handle. A frame cut short is a torn final
// append — the tail a crash cut mid-write — and ends the replay when
// the file is the chain's newest; anywhere earlier the file was sealed
// whole, so short bytes are corruption. A frame that does not checksum
// is corruption anywhere.
func replayFrames(fr *frame.Reader, last bool, handle func(*walRecord) error) error {
	for n := 0; ; n++ {
		payload, err := fr.Next()
		switch {
		case err == io.EOF:
			return nil
		case last && errors.Is(err, io.ErrUnexpectedEOF):
			return nil
		case err != nil:
			return fmt.Errorf("record %d: %w", n, err)
		}
		var rec walRecord
		if err := decodeRecord(payload, &rec); err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		if err := handle(&rec); err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
	}
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
// recovers as chain member 0), replayed oldest first. Each file streams
// through one reused read buffer; framed files replay through
// replayFrames, gob-era files through replayGob. Either way a torn
// final append is tolerated only in the newest file, and any other
// damage fails recovery loudly.
//
// Runs of Replace records apply through PutBatch: the store is empty of
// observers during recovery and Replaces on distinct keys
// commute, so the group commit reproduces the identical bitemporal
// state at a fraction of the per-record locking — the WAL half of the
// fast cold start, as LoadLineage is the segment half.
//
// Fully covered older files are unlinked and the newest file is
// compacted to its surviving records (atomic rewrite, always framed) in
// the background, under the returned Log's pre-held appender token, so
// the cold start does not wait for either. Files straddling the cut stay
// whole as sealed chain members, in whatever format they were written.
// An empty directory yields a fresh one-file chain.
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
		return l, 0, nil
	}

	var (
		lastKept []walRecord
		pending  []BatchPut // run of Replace records awaiting group apply
		total    int
		cf       *chainFile // the file being replayed, for handle
		last     bool       // cf is the chain's newest file
		br       = bufio.NewReaderSize(nil, 1<<16)
		fr       frame.Reader
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := s.PutBatch(pending)
		pending = pending[:0]
		return err
	}
	handle := func(rec *walRecord) error {
		cf.maxTx = max(cf.maxTx, rec.maxTxTime())
		if !rec.keepAfter(cut) {
			return nil
		}
		cf.kept += rec.writes()
		total += rec.writes()
		if last {
			lastKept = append(lastKept, *rec)
		}
		if rec.op == opPutBatch {
			pending = append(pending, rec.puts...)
			return nil
		}
		if err := flush(); err != nil {
			return err
		}
		return s.applyRecord(rec)
	}
	for i := range files {
		cf, last = &files[i], i == len(files)-1
		if err := replayWALFile(fsys, cf.path, last, br, &fr, handle); err != nil {
			return nil, 0, fmt.Errorf("state: recover wal %s: %w", filepath.Base(cf.path), err)
		}
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
		f, size, err := rewriteLogFile(fsys, lastF.path, lastKept)
		if err != nil {
			l.err = err
			return
		}
		l.file, l.size = f, size
		l.n = total
		l.activeRecs = lastF.kept
		if len(lastKept) > 0 {
			l.activeMaxTx = lastF.maxTx
		}
	}()
	return l, total, nil
}

// replayWALFile replays one chain member through handle, choosing the
// decoder by the file's first bytes: the magic selects frames, an empty
// file holds nothing, and anything else is a gob-era stream. A newest
// file shorter than the magic and agreeing with it is a torn first
// append.
func replayWALFile(fsys vfs.FS, path string, last bool, br *bufio.Reader, fr *frame.Reader, handle func(*walRecord) error) error {
	src, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	st, err := src.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	head := make([]byte, min(size, int64(len(walMagic))))
	if _, err := src.ReadAt(head, 0); err != nil {
		return err
	}
	switch {
	case string(head) == walMagic:
		br.Reset(io.NewSectionReader(src, int64(len(walMagic)), size-int64(len(walMagic))))
		fr.Reset(br, size-int64(len(walMagic)))
		return replayFrames(fr, last, handle)
	case last && size < int64(len(walMagic)) && strings.HasPrefix(walMagic, string(head)):
		return nil
	}
	return replayGob(io.NewSectionReader(src, 0, size), last, handle)
}
