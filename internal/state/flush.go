// Durability seam of the store: the flush-side gather and the
// recovery-side bulk loader the segment backend (internal/state/segment)
// builds on.
//
// A durability flush is a pinned cut, exactly like WriteSnapshot: the
// flusher pins a transaction-time instant and serializes, per lineage,
// the records of the cut believed at that instant (recordsAt — records
// recorded after the pin excluded, belief intervals closed after the pin
// restored to open). FlushCut adds the one thing WriteSnapshot lacks:
// incrementality. Each lineage head tracks the highest transaction time
// that touched it (head.maxTx), so a flusher that remembers its last cut
// revisits only the lineages written since.
//
// Recovery inverts the gather: LoadLineage installs one lineage's full
// record set in a single head publication, far cheaper than replaying
// the mutations that produced it.

package state

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/element"
	"repro/internal/temporal"
)

// FlushCut visits every lineage touched after `since`, passing copies of
// the records of the cut believed at tt — the per-lineage WriteSnapshot
// cut (records recorded after tt excluded, supersessions after tt
// restored to open). The copies are scratch FlushCut reuses for the next
// lineage: records and the facts they point to are valid only during
// the call, so a visitor that keeps any must Clone it. Lineages are
// visited in deterministic order: shards in index order, keys in
// (attribute, entity) order within a shard. A lineage whose cut at tt
// is empty (created entirely after the pin) is skipped; its maxTx keeps
// it dirty for the next flush. The gather is lock-free, like every
// cross-shard read: it walks the published directories and heads only.
//
// `since` chains flushes: pass MinInstant for a full pass, or the pin of
// the previous successful flush to gather only what changed. The dirty
// test is head.maxTx > since, which covers writes and retroactive
// corrections alike.
//
// Callers pin tt the way snapshot handles do: at a quiesced boundary
// (the engine's watermark after AdvanceClock) or behind the publication
// barrier (Store.Snapshot().At()). Writes with explicit transaction
// times at or before an already-flushed cut forfeit durability exactly
// as they forfeit scan isolation (see snapshot.go).
//
// It returns the number of lineages visited.
func (s *Store) FlushCut(tt, since temporal.Instant, visit func(key element.FactKey, records []*element.Fact)) int {
	n := 0
	var (
		lins    []*lineage
		scratch []element.Fact
		records []*element.Fact
	)
	for _, sh := range s.shards {
		lins = lins[:0]
		for _, ls := range sh.pub.Load().byAttr {
			for _, l := range ls {
				if l.head.Load().maxTx > since {
					lins = append(lins, l)
				}
			}
		}
		slices.SortFunc(lins, func(a, b *lineage) int { return compareKeys(a.key, b.key) })
		for _, l := range lins {
			scratch = scratch[:0]
			for _, f := range l.head.Load().records {
				if f.RecordedAt > tt {
					continue
				}
				c := f.Copy()
				c.SupersededAt = restoreAt(c.SupersededAt, tt)
				scratch = append(scratch, c)
			}
			if len(scratch) == 0 {
				continue
			}
			records = records[:0]
			for i := range scratch {
				records = append(records, &scratch[i])
			}
			visit(l.key, records)
			n++
		}
	}
	return n
}

// LoadLineage installs one lineage's full record set — as serialized by a
// FlushCut visit — in a single head publication. It is the bulk recovery
// path: where log replay re-runs one mutation per record (validation,
// supersession, a successor head each), LoadLineage builds the published
// head once, so restoring a segment costs O(records) with no per-record
// head churn.
//
// Records must share one key and arrive in recording order (the order
// FlushCut emits). Believed records (open belief interval) must have
// pairwise disjoint validity. The lineage must not already exist: segments
// load into a fresh store before the WAL tail replays on top.
func (s *Store) LoadLineage(records []*element.Fact) error {
	if len(records) == 0 {
		return nil
	}
	key := records[0].Key()
	sh := s.shardFor(key.Entity, key.Attribute)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.byKey[key] != nil {
		return fmt.Errorf("state: load lineage %s: already present", key)
	}
	for i, f := range records {
		if f.Key() != key {
			return fmt.Errorf("state: load lineage %s: record %d has key %s", key, i, f.Key())
		}
	}
	nh, err := buildHead(records, true)
	if err != nil {
		return fmt.Errorf("state: load lineage %s: %w", key, err)
	}

	l := &lineage{key: key}
	l.head.Store(nh)
	sh.byKey[key] = l
	sh.publishInsert(l)
	sh.records.Add(int64(len(records)))
	sh.versions.Add(int64(nh.nLive()))
	sh.bytes.Add(headBytes(nh))
	s.clock.observe(nh.maxTx)
	return nil
}

// buildHead assembles a head from a detached record slice (see fill).
func buildHead(records []*element.Fact, strict bool) (*head, error) {
	h := new(head)
	if _, err := h.fill(records, nil, strict); err != nil {
		return nil, err
	}
	return h, nil
}

// fill assembles h over a detached record slice: records kept in the
// given (recording) order, belief slices derived from the non-superseded
// records in validity order, maxTx and txOrdered computed. The belief
// slices are built in live's storage, which fill returns for reuse, so a
// gather rebuilding one scratch head per cold frame allocates nothing
// once its storage has grown; storage too small for the believed records
// is replaced once, at their count. With strict set, overlapping believed
// records are an error; otherwise the earlier-starting of an
// overlapping pair is dropped from the belief slices.
func (h *head) fill(records, live []*element.Fact, strict bool) ([]*element.Fact, error) {
	*h = head{records: records, maxTx: temporal.MinInstant, txOrdered: true}
	believed := 0
	for _, f := range records {
		if !f.Superseded() {
			believed++
		}
	}
	if cap(live) < believed {
		live = make([]*element.Fact, 0, believed)
	}
	live = live[:0]
	liveSorted := true
	for i, f := range records {
		if f.RecordedAt > h.maxTx {
			h.maxTx = f.RecordedAt
		}
		if f.Superseded() {
			if end := f.BeliefEnd(); end > h.maxTx {
				h.maxTx = end
			}
		} else {
			if n := len(live); n > 0 && live[n-1].Validity.Start > f.Validity.Start {
				liveSorted = false
			}
			live = append(live, f)
		}
		if i > 0 && f.RecordedAt < records[i-1].RecordedAt {
			h.txOrdered = false
		}
	}
	// The monotonic hot path emits believed records already in validity
	// order; only retroactive shapes pay the sort.
	if !liveSorted {
		slices.SortFunc(live, func(a, b *element.Fact) int {
			return cmp.Compare(a.Validity.Start, b.Validity.Start)
		})
	}
	kept := live[:0]
	for i, f := range live {
		if i+1 < len(live) && f.Validity.End > live[i+1].Validity.Start {
			if strict {
				return live, fmt.Errorf("believed validity %s overlaps %s",
					f.Validity, live[i+1].Validity)
			}
			continue
		}
		kept = append(kept, f)
	}
	h.closed = kept
	if n := len(kept); n > 0 && kept[n-1].IsCurrent() {
		h.open = kept[n-1]
		h.closed = kept[:n-1]
	}
	h.recomputeValueEnv()
	return live, nil
}

// FrameSummary is what a durable backend persists about one lineage
// frame so that reads can prune it unread: the numeric value envelope of
// all its records (Numeric false for an empty frame or any non-numeric
// value) and the value a read selecting the open version returns. Both
// are exactly what the head decoded from the frame carries.
type FrameSummary struct {
	Lo, Hi  float64
	Numeric bool
	Open    OpenValue
}

// SummarizeFrame summarizes a lineage frame's records, given in
// recording order, exactly as the head fill builds over them (without
// strict) carries it: the value envelope of every record, and the open
// value of the believed version fill keeps last in validity order — its
// open version when current — which is the version a current read of
// the decoded frame selects. It is one pass with no scratch, because
// every flush and merge calls it once per frame it writes. Only when
// the believed versions are out of validity order and two of them share
// the latest start (a cut that overlapping explicit transaction times
// left behind) does the order depend on fill's sort, and it fills a
// head to find out.
func SummarizeFrame(records []*element.Fact) FrameSummary {
	var env head
	var last *element.Fact      // believed version with the latest validity start
	sorted, tied := true, false // believed starts non-decreasing; last's start shared
	for i, f := range records {
		env.observeValue(f.Value, i > 0)
		if f.Superseded() {
			continue
		}
		switch {
		case last == nil || f.Validity.Start > last.Validity.Start:
			last, tied = f, false
		case f.Validity.Start == last.Validity.Start:
			last, tied = f, true
		default:
			sorted = false
		}
	}
	if !sorted && tied {
		var h head
		h.fill(records, nil, false)
		last = h.open
	}
	if last != nil && !last.IsCurrent() {
		last = nil
	}
	return FrameSummary{Lo: env.vMin, Hi: env.vMax, Numeric: env.vNumeric, Open: openValueOf(last)}
}
