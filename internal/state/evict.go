// Out-of-core residency: the cold-read seam and the working-set
// eviction machinery that let RAM track the hot working set instead of
// total live state.
//
// A ColdSource (the segment backend implements it) answers for lineages
// that are NOT resident in RAM in two steps: ResolveCold resolves keys
// against its catalog, ColdFrames filters that resolution into unread
// frames, and a FrameSource decodes them. Every cold read takes that one
// path: scans filter the resolution of their candidate order's cold keys,
// made once per catalog, and point reads, histories and fault-in
// (loadCold) resolve their one key and load it exactly like a scan's
// cold candidate. A write to an evicted key restores the full record
// history first, so a later flush frame never supersedes history it no
// longer sees.
//
// Eviction is the inverse of recovery's LoadLineage: EvictToBudget
// removes fully-flushed, least-recently-used lineages from the shard
// maps — their bytes leave RAM entirely; the durable frame remains the
// single copy — and marks the keys evicted (the write path faults them
// back in) and cold (reads resolve them). A lineage is evictable only
// when every transaction that touched it is durable (head.maxTx at or
// before the flushed cut): for such a lineage the segment frame holds
// the byte-identical record set, so evicting and re-reading through the
// ColdSource is invisible to every read shape at every pin.
package state

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/element"
	"repro/internal/temporal"
)

// ColdLineage is one durable-only lineage ColdFrames returned: the key
// (scans merge by it) and where its frame lies, read only by the reader
// that owns the candidate — possibly a scan worker — with
// Src.LoadFrame(Key, Off, buf).
type ColdLineage struct {
	Key element.FactKey
	Src FrameSource
	Off int64
}

// FrameSource reads the lineage frames ColdFrames returns.
// LoadFrame must be safe for concurrent calls with distinct buffers.
type FrameSource interface {
	// LoadFrame reads and verifies the frame at off, which must hold key,
	// and decodes its full record set into buf. The records alias buf and
	// are valid until its next load; a frame that fails its read, checksum
	// or decode is an error.
	LoadFrame(key element.FactKey, off int64, buf *ColdBuf) ([]*element.Fact, error)
}

// ColdBuf is the memory one lineage frame decodes into: the frame bytes,
// the facts, and the record pointers over them. A scan gather reuses one
// per worker across its cold candidates; point reads and histories
// decode into a fresh one. Both clone what they return. Fault-in also
// decodes into a fresh one and keeps its records. Decoded strings never
// alias Frame.
type ColdBuf struct {
	Frame   []byte
	Facts   []element.Fact
	Records []*element.Fact
}

// ColdSource serves reads for lineages that are not resident in RAM —
// evicted by the residency budget, their durable frames the single copy
// of their record history. The segment backend is the production
// implementation. It must be safe for concurrent use and tolerate being
// asked about keys it does not own.
type ColdSource interface {
	// ResolveCold resolves cold keys — distinct, in any order — against
	// the current durable catalog: for each key that has a frame, where
	// its newest frame lies and the envelopes ColdFrames filters it by,
	// nothing read. The cost follows the keys, not the catalog, and is
	// paid once per resolve, not once per read.
	ResolveCold(keys []element.FactKey) ColdResolution
	// ColdFrames filters a resolution this source made for one read,
	// appending to dst one unread candidate per resolved key, in the
	// keys' order. Frames whose owning segment's envelope is provably
	// disjoint from the shape, and frames whose value envelope
	// (ValueEnvelopeOf over the frame's records, persisted by the source)
	// is disjoint from the bounds, are dropped unread. A source without a
	// frame's envelope may return it: the reader re-tests the decoded
	// head. It costs one envelope test per resolved key and no catalog
	// work. Candidates for keys that are in fact resident are permitted —
	// the merge discards them unloaded.
	ColdFrames(dst []ColdLineage, res ColdResolution, shape ScanShape, bounds ValueBounds) []ColdLineage
}

// ColdResolution is a key set a ColdSource resolved against one version
// of its catalog: immutable, safe to filter concurrently, and filtered
// only by the source that made it. The store keeps a scan scope's
// resolution with its candidate order while it is Current; the source
// calls Store.DropColdResolutions after it publishes a new catalog, so no
// kept resolution holds a replaced catalog's segments reachable.
type ColdResolution interface {
	// Current reports whether the catalog the resolution was made against
	// is still the source's published one.
	Current() bool
}

// coldSourceRef wraps the interface value for atomic publication.
type coldSourceRef struct{ cs ColdSource }

// SetColdSource installs (or, with nil, removes) the store's cold-read
// backend. Install before eviction can occur; reads race-freely observe
// either the old or the new source. The cached candidate orders are
// dropped with the resolutions they keep: each install is a fresh
// source, whose first scans resolve afresh.
func (s *Store) SetColdSource(cs ColdSource) {
	if cs == nil {
		s.cold.Store(nil)
	} else {
		s.cold.Store(&coldSourceRef{cs: cs})
	}
	s.dropOrders()
}

// coldSource returns the installed ColdSource, nil when none.
func (s *Store) coldSource() ColdSource {
	if ref := s.cold.Load(); ref != nil {
		return ref.cs
	}
	return nil
}

// DropColdResolutions forgets the cold resolutions the cached candidate
// orders keep, so none holds a replaced catalog — or a segment only it
// references — reachable. A ColdSource calls it after it publishes a new
// catalog; the next scan of each scope resolves its cold keys afresh.
func (s *Store) DropColdResolutions() {
	for _, o := range s.orders.Load().scopes {
		o.res.Store(nil)
	}
}

// ColdResolutions returns the cold resolutions the cached candidate
// orders keep — what invariant checks hold the source's catalog against.
func (s *Store) ColdResolutions() []ColdResolution {
	var out []ColdResolution
	for _, o := range s.orders.Load().scopes {
		if k := o.res.Load(); k != nil {
			out = append(out, k.res)
		}
	}
	return out
}

// SetAccessTracking enables recency stamping on point reads and writes,
// the signal EvictToBudget's LRU ordering consumes. Off by default: the
// two atomic operations per read are measurable on the hottest paths,
// so only budgeted stores pay them.
func (s *Store) SetAccessTracking(on bool) {
	s.trackAccess.Store(on)
}

// touch stamps a lineage's access recency when tracking is enabled.
func (s *Store) touch(l *lineage) {
	if s.trackAccess.Load() {
		l.access.Store(s.accessSeq.Add(1))
	}
}

// factOverheadBytes approximates the fixed in-RAM cost of one record:
// the Fact struct itself, its slot in the records slice, and its share
// of head/belief-slice bookkeeping.
const factOverheadBytes = 96

// approxFactBytes estimates the resident size of one record. The
// estimate only needs to be consistent (the same record always costs
// the same), since the budget compares accumulated estimates against a
// configured number, not against the allocator.
func approxFactBytes(f *element.Fact) int64 {
	n := int64(factOverheadBytes + len(f.Entity) + len(f.Attribute) + len(f.Source))
	if s, ok := f.Value.AsString(); ok {
		n += int64(len(s))
	}
	return n
}

// headBytes sums the record estimates of one published head.
func headBytes(h *head) int64 {
	var n int64
	for _, f := range h.records {
		n += approxFactBytes(f)
	}
	return n
}

// ResidentBytes reports the estimated bytes of all RAM-resident records,
// summed from the per-shard atomics without any shard lock.
func (s *Store) ResidentBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.bytes.Load()
	}
	return n
}

// ResidentLineages reports the number of lineages resident in RAM.
func (s *Store) ResidentLineages() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.pub.Load().n
	}
	return n
}

// EvictedCount reports the number of keys currently marked evicted, read
// from the published directories without any shard lock.
func (s *Store) EvictedCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.pub.Load().evicted
	}
	return n
}

// ColdKeys returns the published cold keys, stale marks included, in no
// particular order — what invariant checks hold the catalog against.
func (s *Store) ColdKeys() []element.FactKey {
	var keys []element.FactKey
	for _, sh := range s.shards {
		for _, ks := range sh.pub.Load().cold {
			keys = append(keys, ks...)
		}
	}
	return keys
}

// MarkCold seeds the cold directory at recovery, republishing each shard
// once. The keys (the frames recovery skipped to honor the residency
// budget) serve reads from their frames and are fault-in targets for
// writes. Keys that turn out to be resident are left alone.
func (s *Store) MarkCold(keys []element.FactKey) {
	add := make([][]element.FactKey, len(s.shards))
	for _, key := range keys {
		si := shardIndex(key.Entity, key.Attribute, s.shardMask)
		add[si] = append(add[si], key)
	}
	for si, sh := range s.shards {
		if len(add[si]) == 0 {
			continue
		}
		sh.mu.Lock()
		for _, key := range add[si] {
			if sh.byKey[key] == nil {
				sh.evicted[key] = true
			}
		}
		sh.publishRebuild(add[si])
		sh.mu.Unlock()
	}
	s.dropOrders()
}

// EvictToBudget evicts least-recently-used, fully-durable lineages until
// the store's resident byte estimate is at or below budget, returning
// how many lineages were evicted. `durable` is the durability layer's
// flushed cut: only lineages whose every write (head.maxTx) is at or
// before it are candidates, because only for those does a durable frame
// hold the byte-identical record set. A lineage with no records (one
// whose first write failed to log) has no frame and is never evicted.
//
// The candidate scan is lock-free over the published directories; the
// evictions themselves batch per shard under one write-lock hold, with
// the keys moved from resident to cold in one directory publication
// before the lock is released — a concurrent fault-in or scan always
// observes a consistent (resident, cold) pair. Candidates that were
// touched between the scan and the locked re-check are skipped: they
// just proved themselves hot.
func (s *Store) EvictToBudget(budget int64, durable temporal.Instant) int {
	if budget < 0 {
		budget = 0
	}
	resident := s.ResidentBytes()
	if resident <= budget {
		return 0
	}
	type candidate struct {
		shard  int
		l      *lineage
		access int64
		size   int64
	}
	var cands []candidate
	for si, sh := range s.shards {
		for _, ls := range sh.pub.Load().byAttr {
			for _, l := range ls {
				h := l.head.Load()
				if len(h.records) == 0 || h.maxTx > durable {
					continue
				}
				cands = append(cands, candidate{shard: si, l: l, access: l.access.Load(), size: headBytes(h)})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].access < cands[j].access })
	need := resident - budget
	byShard := make(map[int][]candidate)
	var sum int64
	for _, c := range cands {
		if sum >= need {
			break
		}
		byShard[c.shard] = append(byShard[c.shard], c)
		sum += c.size
	}
	evicted := 0
	for si, group := range byShard {
		sh := s.shards[si]
		sh.mu.Lock()
		var gone []element.FactKey
		for _, c := range group {
			key := c.l.key
			if sh.byKey[key] != c.l {
				continue
			}
			h := c.l.head.Load()
			if len(h.records) == 0 || h.maxTx > durable || c.l.access.Load() != c.access {
				continue
			}
			delete(sh.byKey, key)
			sh.evicted[key] = true
			sh.records.Add(int64(-len(h.records)))
			sh.versions.Add(int64(-h.nLive()))
			sh.bytes.Add(-headBytes(h))
			gone = append(gone, key)
		}
		if len(gone) > 0 {
			sh.publishRebuild(gone)
		}
		sh.mu.Unlock()
		evicted += len(gone)
	}
	if evicted > 0 {
		s.dropOrders()
	}
	return evicted
}

// faultIn reinstalls an evicted key's record history before a write
// touches it, loading the newest frame unpruned through loadCold. A key
// with no durable frame (or an empty one) loses its evicted mark and the
// write proceeds on a fresh lineage; its cold mark goes stale, not away.
// A frame the source cannot read, or whose records do not form a valid
// lineage, fails the write and leaves the key evicted: committing onto a
// fresh lineage would let the next flush frame supersede history the
// store never saw. Callers hold sh.mu and have already missed sh.byKey.
func (s *Store) faultIn(sh *shard, key element.FactKey) (*lineage, error) {
	if !sh.evicted[key] {
		return nil, nil
	}
	var nh *head
	records, err := s.loadCold(key, ScanShape{AllVersions: true}, new(coldScratch))
	if err == nil && len(records) > 0 {
		nh, err = buildHead(records, true)
	}
	if err != nil {
		return nil, fmt.Errorf("state: fault in %s: %w", key, err)
	}
	delete(sh.evicted, key)
	if nh == nil {
		old := sh.pub.Load()
		sh.publish(old.byAttr, old.cold) // refreshes the evicted count
		return nil, nil
	}
	l := &lineage{key: key}
	l.head.Store(nh)
	if s.trackAccess.Load() {
		l.access.Store(s.accessSeq.Add(1))
	}
	sh.byKey[key] = l
	sh.publishInsert(l)
	sh.records.Add(int64(len(nh.records)))
	sh.versions.Add(int64(nh.nLive()))
	sh.bytes.Add(headBytes(nh))
	s.clock.observe(nh.maxTx)
	return l, nil
}

// compareKeys orders keys by (attribute, entity) — the deterministic
// order of every cross-shard gather, which cold keys share.
func compareKeys(a, b element.FactKey) int {
	if c := strings.Compare(a.Attribute, b.Attribute); c != 0 {
		return c
	}
	return strings.Compare(a.Entity, b.Entity)
}

// shapeOfCfg converts a resolved read configuration to the exported
// scan-shape form ColdSources consume.
func shapeOfCfg(cfg readCfg) ScanShape {
	return ScanShape{
		ValidAt: cfg.validAt, HasValidAt: cfg.hasValidAt,
		During: cfg.validDuring, HasDuring: cfg.hasDuring,
		TxAt: cfg.txAt, HasTxAt: cfg.hasTxAt,
		Attr: cfg.attr, AllVersions: cfg.allVersions,
	}
}
