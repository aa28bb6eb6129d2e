// The stream-append write shape: Replace and its group-committed form,
// PutBatch. Both write one opPutBatch WAL frame per batch. PutBatch
// applies a caller-assembled batch for one lock acquisition per touched
// shard and one WAL append. Replace, the engine's rule write, applies
// at once — later elements see every earlier write — but only stages
// its WAL write; the engine's Commit at each micro-batch edge (the
// elements between two watermarks) encodes the stage as one frame.
// Both share one per-entry body, replaceLocked, whose commit
// is the O(1) shared-prefix head append of commit's fast path.

package state

import (
	"fmt"

	"repro/internal/element"
	"repro/internal/temporal"
)

// BatchPut is one stream-append write: the current version of
// (Entity, Attr) is terminated at At and a new version valid over
// [At, Forever) is asserted with transaction time At.
type BatchPut struct {
	Entity string
	Attr   string
	Value  element.Value
	At     temporal.Instant
}

// Replace is the stream-append write, exactly PutBatch of one entry: the
// current version of (entity, attr), if any, is terminated at `at`, and a
// new version valid over [at, Forever) is asserted with transaction time
// `at`. This is the paper's canonical state transition ("the most recent
// position invalidates and updates any previous position", §1) and the
// rule engine's REPLACE. A write earlier than the key's latest believed
// version start fails with ErrOutOfOrder; use Put with WithValidTime for
// a retroactive correction. With a log attached, the write reaches the
// WAL at the next Commit (or Sync or Close, or any other logged write,
// which commits the stage first); a failed commit leaves RAM ahead of
// the log, as with PutBatch.
func (s *Store) Replace(entity, attr string, v element.Value, at temporal.Instant) error {
	p := BatchPut{Entity: entity, Attr: attr, Value: v, At: at}
	sh := s.shardFor(entity, attr)
	return s.mutate(sh, func(log *Log, changes []Change, record bool) ([]Change, error) {
		return s.replaceLocked(sh, &p, log, changes, record)
	})
}

// replaceLocked is the one per-entry body of Replace and PutBatch. It
// looks the key up (faulting an evicted lineage back in, creating a new
// one otherwise), rejects a write earlier than the latest believed
// version start with ErrOutOfOrder, stages the entry in log when one is
// given — after validation, before mutating, so stage order is per-key
// apply order — and commits. Callers hold sh.mu.
func (s *Store) replaceLocked(sh *shard, p *BatchPut, log *Log, changes []Change, record bool) ([]Change, error) {
	w := temporal.NewInterval(p.At, temporal.Forever)
	key := element.FactKey{Entity: p.Entity, Attribute: p.Attr}
	if w.IsEmpty() {
		return changes, fmt.Errorf("state: replace %s: empty validity %s", key, w)
	}
	l := sh.byKey[key]
	if l == nil {
		// An evicted key must be faulted back in before it is mutated —
		// same rule as apply.
		var err error
		if l, err = s.faultIn(sh, key); err != nil {
			return changes, err
		}
	}
	if l == nil {
		l = sh.lineage(key, true)
	}
	s.touch(l)
	if last := l.head.Load().lastLive(); last != nil && p.At < last.Validity.Start {
		return changes, fmt.Errorf("%w: %s at %s before %s", ErrOutOfOrder, key, p.At, last.Validity.Start)
	}
	if log != nil {
		if err := log.stagePut(p); err != nil {
			return changes, err
		}
	}
	f := element.NewFact(p.Entity, p.Attr, p.Value, w)
	f.RecordedAt = p.At
	f.SupersededAt = temporal.Forever
	s.clock.observe(p.At)
	return sh.commit(l, f, w, p.At, changes, record), nil
}

// PutBatch applies a micro-batch of Replace writes as one group commit.
// Entries are bucketed by shard; each shard's write lock is taken exactly
// once and its entries applied in slice order, so per-key ordering (and
// the per-key monotonicity rule of Replace) is exactly that of an
// equivalent loop of Replaces. The WAL receives a single framed record
// carrying every applied entry (replay-compatible with per-element logs:
// replay applies the frame's writes one at a time).
//
// The frame is written after the mutations commit, so a log-write
// failure leaves the store ahead of the log; the error is returned so
// callers can fail the batch. Writing it first commits any staged
// Replaces, keeping the file in append order.
//
// One deliberate relaxation versus a loop of Replaces, in exchange for
// the amortized locking:
//
//   - Watchers observe the batch's changes grouped by shard (in shard
//     index order, entry order within a shard), not interleaved in global
//     entry order.
//
// On a validation error (e.g. ErrOutOfOrder) the batch stops and the
// error is returned. Application is shard-major, so the applied set is
// NOT the slice prefix a failed loop of Replaces would leave: every entry
// of lower-indexed shards (including entries after the failing one in
// slice order) plus the failing shard's own prefix is applied, the rest
// is not. Per-key the applied writes are always a prefix of that key's
// entries, and the WAL frame records exactly the applied entries, so
// replay reproduces the post-error state; callers wanting more than
// per-key prefix consistency must treat a batch error as fatal rather
// than re-issue a suffix.
func (s *Store) PutBatch(puts []BatchPut) error {
	if len(puts) == 0 {
		return nil
	}
	bws, log := s.observers()
	record := len(bws) > 0
	perShard := make([][]int, len(s.shards))
	for i := range puts {
		si := shardIndex(puts[i].Entity, puts[i].Attr, s.shardMask)
		perShard[si] = append(perShard[si], i)
	}

	var (
		changes  []Change
		bufp     *[]Change
		firstErr error
		applied  = make([]bool, len(puts))
		nApplied int
	)
	if record {
		bufp = takeChangeBuf()
		changes = *bufp
	}
	for si, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			if changes, firstErr = s.replaceLocked(sh, &puts[i], nil, changes, record); firstErr != nil {
				break
			}
			applied[i] = true
			nApplied++
		}
		sh.mu.Unlock()
		if firstErr != nil {
			break
		}
	}

	if log != nil && nApplied > 0 {
		frame := puts
		if nApplied < len(puts) {
			frame = make([]BatchPut, 0, nApplied)
			for i := range puts {
				if applied[i] {
					frame = append(frame, puts[i])
				}
			}
		}
		if err := log.appendPutBatch(frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	notifyAll(bws, changes)
	if bufp != nil {
		putChangeBuf(bufp, changes)
	}
	return firstErr
}
