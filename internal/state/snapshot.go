// Snapshot handles: cheap immutable views over one consistent cut of the
// whole store, pinned at a transaction-clock instant.
//
// The snapshot-epoch protocol has no freeze step. Every lineage publishes
// an immutable head through an atomic pointer (see head in store.go) and
// every record carries its belief interval [RecordedAt, SupersededAt), so
// "the cut at transaction time T" is fully determined by T alone: a
// handle is just {store, T}. Readers load whatever heads are current and
// filter by visibility at T — records committed after the pin carry later
// transaction times and drop out, belief intervals closed after the pin
// still satisfy SupersededAt > T. Old heads a reader has already loaded
// stay alive by ordinary garbage collection until every such reader
// drains; nothing blocks, nothing is copied, and writers never wait.
//
// The one caveat, inherited from the bitemporal model itself: a writer
// that pins an explicit transaction time at or before an in-flight pin
// (WithTransactionTime, or a Replace's application time) can commit
// "into" an already-pinned cut. Default-clock writes cannot —
// the clock reserve makes their transaction times strictly later than
// every instant already handed to a reader.

package state

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/temporal"
)

// Reader is the read-only temporal query surface shared by the live
// store and pinned snapshot handles. The query layer (internal/query)
// evaluates against a Reader, so on-demand queries can run on a snapshot
// handle — off the lock path entirely — while the engine keeps ingesting.
type Reader interface {
	// Find returns the version of (entity, attr) selected by the read
	// options.
	Find(entity, attr string, opts ...ReadOpt) (*element.Fact, bool)
	// List returns one selected version per key — or every matching
	// version with AllVersions/DuringValidTime — sorted by (attribute,
	// entity, validity start).
	List(opts ...ReadOpt) []*element.Fact
}

var (
	_ StateDB = (*Store)(nil)
	_ Reader  = (*Snapshot)(nil)
)

// Snapshot is an immutable handle over one consistent multi-shard cut of
// the store: the state as believed at the pinned transaction-clock
// instant. Taking a handle is O(1) — it captures the pin, not the data —
// and reading through it acquires no shard locks, so arbitrarily long
// analytical reads never stall ingestion. Retroactive corrections
// recorded after the pin are invisible through the handle. No operation
// removes a record from the store (eviction only moves a lineage to its
// durable frame), so every re-read through the handle is repeatable.
type Snapshot struct {
	s  *Store
	at temporal.Instant
}

// Snapshot returns a handle pinned at the transaction clock's current
// high-water mark: one consistent cut containing every committed write.
// Taking the handle runs the publication barrier (one O(1) lock
// handshake per shard, never held across anything), so every write at or
// before the pin is already published and re-reads through the handle
// are repeatable.
func (s *Store) Snapshot() *Snapshot { return &Snapshot{s: s, at: s.pinBarrier()} }

// SnapshotAt returns a handle pinned at an explicit transaction-time
// instant, without the publication barrier: the caller asserts that
// writes at or before t have quiesced. Callers that coordinate pins with
// their own clock (the engine pins watermarks between micro-batches)
// should AdvanceClock(t) first, so no later default-clock write can
// commit at or before the pin.
func (s *Store) SnapshotAt(t temporal.Instant) *Snapshot {
	return &Snapshot{s: s, at: t}
}

// At reports the handle's pinned transaction-time instant.
func (sn *Snapshot) At() temporal.Instant { return sn.at }

// clamp pins cfg's belief instant to the handle: reads default to the
// pin, and an explicit AsOfTransactionTime may only look further into
// the past, never past the pin.
func (sn *Snapshot) clamp(cfg readCfg) readCfg {
	if !cfg.hasTxAt || cfg.txAt > sn.at {
		cfg.txAt, cfg.hasTxAt = sn.at, true
	}
	return cfg
}

// Find returns the version of (entity, attr) selected by the read options
// within the pinned cut.
func (sn *Snapshot) Find(entity, attr string, opts ...ReadOpt) (*element.Fact, bool) {
	return sn.s.findClone(entity, attr, sn.clamp(newReadCfg(opts)))
}

// FindValue returns just the value of the version Find would select with
// the spec's options — the allocation-free point read, against the
// pinned cut.
func (sn *Snapshot) FindValue(entity, attr string, spec ReadSpec) (element.Value, bool) {
	if f := sn.s.findPick(entity, attr, sn.clamp(spec.cfg())); f != nil {
		return f.Value, true
	}
	return element.Null, false
}

// List returns the cut's versions selected by the read options, exactly
// as Store.List would at the pinned instant.
func (sn *Snapshot) List(opts ...ReadOpt) []*element.Fact {
	return sn.s.gatherList(sn.clamp(newReadCfg(opts)))
}

// WriteSnapshot dumps the pinned cut in the canonical cut encoding (see
// Store.WriteSnapshot): every record believed at the pin, with belief
// intervals closed after the pin restored to open. Two handles over the
// same bitemporal cut dump identical bytes.
func (sn *Snapshot) WriteSnapshot(w io.Writer) error {
	return sn.s.writeSnapshotAt(w, sn.at)
}

// WriteSnapshot dumps every record in the store to w — including
// versions superseded by retroactive corrections — in deterministic key
// order. It is the canonical encoding of a bitemporal cut: two stores
// holding the same state dump identical bytes, which is how the
// equivalence suites compare a recovered store against its oracle. It is
// an export format, not a restore format (durability is the WAL chain
// plus segments). The record set is one consistent cut pinned at the
// transaction clock's high-water mark, gathered lock-free from the
// published heads — dumping a large store does not stall writers.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return s.writeSnapshotAt(w, s.pinBarrier())
}

// writeSnapshotAt serializes the cut believed at tt (Snapshot.WriteSnapshot
// pins a handle's instant; WriteSnapshot pins the clock) in the frame
// primitives:
//
//	dump   := n:uvarint record^n
//	record := entity attr start end recorded superseded flags:u8 [source] value
//
// Records are buffered and written in 64 KiB chunks.
func (s *Store) writeSnapshotAt(w io.Writer, tt temporal.Instant) error {
	facts := s.allRecordsAt(tt)
	b := binary.AppendUvarint(make([]byte, 0, 1<<16), uint64(len(facts)))
	for _, f := range facts {
		b = frame.AppendString(b, f.Entity)
		b = frame.AppendString(b, f.Attribute)
		b = frame.AppendInstant(b, f.Validity.Start)
		b = frame.AppendInstant(b, f.Validity.End)
		b = frame.AppendInstant(b, f.RecordedAt)
		b = frame.AppendInstant(b, f.SupersededAt)
		b = frame.AppendProvenance(b, f.Derived, f.Source)
		var err error
		if b, err = frame.AppendValue(b, f.Value); err != nil {
			return fmt.Errorf("state: snapshot record %s: %w", f.Key(), err)
		}
		if len(b) >= 1<<16 {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("state: snapshot: %w", err)
			}
			b = b[:0]
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("state: snapshot: %w", err)
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
