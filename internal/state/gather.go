// Cross-shard gathers: the one place where the db model (resident heads)
// and the storage model (durable frames behind the ColdSource) meet.
// List, Scan, WriteSnapshot, and ScanPartitioned all take their
// candidates from one merge, so results are byte-identical whether a
// lineage is resident or evicted.

package state

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/element"
)

// scanCand is one gather candidate: a resident head loaded once when the
// candidates were collected (the scan's consistent view of the lineage),
// or a cold lineage whose frame is read and decoded lazily by the gather
// that owns it — inside a partition worker for ScanPartitioned.
type scanCand struct {
	h    *head
	cold *ColdLineage // when h == nil
}

// coldScratch is what one cold reader — a serial gather, one partition
// worker, or one point read, history or fault-in — decodes its cold
// frames into, reused from candidate to candidate: the frame buffer and
// records, the belief slice, and the head built over them, plus the key
// and result slot of a one-key resolve. Nothing in it escapes a read:
// every read consumer (pickInto, recordsAt, Scan, the point reads and
// histories) clones the versions it returns, and fault-in keeps only the
// records.
type coldScratch struct {
	buf  ColdBuf
	live []*element.Fact
	h    head
	key  [1]element.FactKey
	hit  [1]ColdLineage
}

// load returns the candidate's head, reading a cold frame into sc on the
// calling goroutine; the head is valid until sc's next load. A frame
// holding no records (a tombstone) loads as nil. A frame that cannot be
// read or verified is an error, never an absent lineage: retired
// segments stay readable until no reader can reach them, so a merge
// racing the scan does not produce one.
func (c scanCand) load(sc *coldScratch) (*head, error) {
	if c.h != nil {
		return c.h, nil
	}
	records, err := sc.read(c.cold)
	if err != nil || len(records) == 0 {
		return nil, err
	}
	return sc.head(records), nil
}

// read decodes a cold lineage's frame into sc's buffer.
func (sc *coldScratch) read(c *ColdLineage) ([]*element.Fact, error) {
	records, err := c.Src.LoadFrame(c.Key, c.Off, &sc.buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrColdFrame, c.Key, err)
	}
	return records, nil
}

// head builds sc's head over records decoded into it.
func (sc *coldScratch) head(records []*element.Fact) *head {
	sc.live, _ = sc.h.fill(records, sc.live, false)
	return &sc.h
}

// loadCold resolves one non-resident key with the ColdSource, filters
// the resolution by shape and decodes the surviving frame into sc,
// exactly as a gather loads a cold candidate — the one cold loader of
// point reads, histories and fault-in. No records and no error: no
// source is installed, the key has no frame, or the frame's segment
// envelope proves the shape cannot match.
func (s *Store) loadCold(key element.FactKey, shape ScanShape, sc *coldScratch) ([]*element.Fact, error) {
	cs := s.coldSource()
	if cs == nil {
		return nil, nil
	}
	sc.key[0] = key
	hit := cs.ColdFrames(sc.hit[:0], cs.ResolveCold(sc.key[:]), shape, ValueBounds{})
	if len(hit) == 0 {
		return nil, nil
	}
	return sc.read(&hit[0])
}

// coldHead is loadCold for point reads and histories: the key's head
// over a fresh scratch, nil when there is none. This is the one place a
// cold frame that fails to load reads as absent; these surfaces have no
// error to report it through yet (ROADMAP item 8).
func (s *Store) coldHead(key element.FactKey, shape ScanShape) *head {
	sc := new(coldScratch)
	records, err := s.loadCold(key, shape, sc)
	if err != nil || len(records) == 0 {
		return nil
	}
	return sc.head(records)
}

// ErrColdFrame marks a scan that failed because a durable frame it had to
// read could not be read or verified: the store, not the query, is at
// fault.
var ErrColdFrame = errors.New("state: unreadable cold frame")

// candidates collects a scan's lineages in (attribute, entity) order,
// scoped to cfg's attribute. The sorted order comes from the scope's
// candOrder, built once per version of the shard directories, so a scan
// between two directory changes sorts nothing. Each shard's directory
// is loaded once, so its resident lineages and cold keys are one
// consistent pair even while eviction or fault-in runs. The cold keys,
// already sorted, are resolved once per catalog (candOrder.resolution),
// and each scan only filters that resolution by its shape and bounds,
// which keeps the keys' order — no cold keys, no catalog work. A frame
// whose key is also resident (a stale mark) is dropped unread: the
// resident head wins. Resident heads the value bounds exclude are pruned
// here — by their whole-history envelope, or, when the shape selects the
// open version, by their open value — so pruning also rebalances
// partitions. The merge loop is
// closure-free and a cached order and resolution cost no allocation:
// prepared-query Exec rides this path on a fixed allocation budget.
func (s *Store) candidates(cfg readCfg, bounds ValueBounds) ([]scanCand, ScanStats) {
	o := s.order(cfg.attr)
	lins := o.lins
	stats := ScanStats{Lineages: len(lins)}

	shape := shapeOfCfg(cfg)
	var frames []ColdLineage
	if ref := s.cold.Load(); ref != nil && len(o.cold) > 0 {
		frames = ref.cs.ColdFrames(nil, o.resolution(ref), shape, bounds)
	}

	cmp := scopeOrder(cfg.attr)
	prune := bounds.Constrained()
	open := prune && shape.SelectsOpen()
	var cands []scanCand // a bounded scan grows it by what survives
	if !prune {
		cands = make([]scanCand, 0, len(lins)+len(frames))
	}
	for i, j := 0, 0; i < len(lins) || j < len(frames); {
		if j < len(frames) && (i == len(lins) || cmp(frames[j].Key, lins[i].key) <= 0) {
			if i == len(lins) || frames[j].Key != lins[i].key {
				cands = append(cands, scanCand{cold: &frames[j]})
				stats.Lineages++
				stats.ColdLineages++
			}
			j++
			continue
		}
		h := lins[i].head.Load()
		i++
		if prune && (h.skipByBounds(bounds) || (open && h.skipOpen(cfg, bounds))) {
			stats.IndexPruned++
			continue
		}
		cands = append(cands, scanCand{h: h})
	}
	return cands, stats
}

// candOrder is one scan scope's candidates in gather order: the
// resident lineages and the cold keys of the shard directories in pubs
// (by shard index), each sorted by (attribute, entity). It is immutable
// once published and stays valid while every shard still publishes the
// directory it was built from — directories change only when a key set
// does (new lineage, eviction, fault-in), never on ordinary writes. res
// keeps the cold keys' resolution against the cold source's current
// catalog, made by the first scan that needs it.
type candOrder struct {
	pubs []*pubIndex
	lins []*lineage
	cold []element.FactKey
	res  atomic.Pointer[keptResolution]
}

// keptResolution is an order's cold-key resolution and the source
// install (SetColdSource) that made it.
type keptResolution struct {
	src *coldSourceRef
	res ColdResolution
}

// resolution returns o's cold keys resolved by src: the kept resolution
// while src made it and it is Current — a lookup that allocates nothing
// — or else one resolved now and kept for the scans after it. The
// keepOrder discipline holds with the catalog as the epoch: a
// resolution whose catalog was replaced before it was kept is taken back
// (DropColdResolutions may already have passed this order), so a kept
// resolution never outlives its catalog's publish.
func (o *candOrder) resolution(src *coldSourceRef) ColdResolution {
	if k := o.res.Load(); k != nil && k.src == src && k.res.Current() {
		return k.res
	}
	k := &keptResolution{src: src, res: src.cs.ResolveCold(o.cold)}
	o.res.Store(k)
	if !k.res.Current() {
		o.res.CompareAndSwap(k, nil)
	}
	return k.res
}

// orderSet is the store's published candidate orders, by attribute
// scope ("" for all attributes), replaced copy-on-write. epoch counts
// drops: an order built across a drop is not published.
type orderSet struct {
	epoch  uint64
	scopes map[string]*candOrder
}

// noOrders is the order set of a fresh store.
var noOrders = &orderSet{}

// order returns attr's candidate order for the current directories:
// the cached one when every shard still publishes the directory it was
// built from — a lookup that allocates nothing — or else one collected
// and sorted now and published for the scans after it.
func (s *Store) order(attr string) *candOrder {
	set := s.orders.Load()
	if o := set.scopes[attr]; o != nil && o.current(s.shards) {
		return o
	}
	o := &candOrder{pubs: make([]*pubIndex, len(s.shards))}
	for i, sh := range s.shards {
		pub := sh.pub.Load()
		o.pubs[i] = pub
		if attr != "" {
			o.lins = append(o.lins, pub.byAttr[attr]...)
			o.cold = append(o.cold, pub.cold[attr]...)
			continue
		}
		for _, ls := range pub.byAttr {
			o.lins = append(o.lins, ls...)
		}
		for _, ks := range pub.cold {
			o.cold = append(o.cold, ks...)
		}
	}
	cmp := scopeOrder(attr)
	slices.SortFunc(o.lins, func(a, b *lineage) int { return cmp(a.key, b.key) })
	slices.SortFunc(o.cold, cmp)
	s.keepOrder(set.epoch, attr, o)
	return o
}

// current reports whether every shard still publishes the directory the
// order was built from.
func (o *candOrder) current(shards []*shard) bool {
	for i, sh := range shards {
		if sh.pub.Load() != o.pubs[i] {
			return false
		}
	}
	return true
}

// keepOrder publishes o as attr's order unless the orders were dropped
// since the epoch its builder started in: the builder may have loaded a
// directory from before the drop. Concurrent builders each publish, and
// the last one stored wins; every order is correct for the directories
// it holds.
func (s *Store) keepOrder(epoch uint64, attr string, o *candOrder) {
	for {
		old := s.orders.Load()
		if old.epoch != epoch {
			return
		}
		next := &orderSet{epoch: epoch, scopes: make(map[string]*candOrder, len(old.scopes)+1)}
		for a, oo := range old.scopes {
			next.scopes[a] = oo
		}
		next.scopes[attr] = o
		if s.orders.CompareAndSwap(old, next) {
			return
		}
	}
}

// dropOrders forgets every cached order, so none keeps an evicted
// lineage — or the directory that held it, or its resolution —
// reachable. Callers drop after the directory rebuilds; the next scan
// of each scope rebuilds its order.
func (s *Store) dropOrders() {
	for {
		old := s.orders.Load()
		if s.orders.CompareAndSwap(old, &orderSet{epoch: old.epoch + 1}) {
			return
		}
	}
}

// scopeOrder is the key order of a scan scope: by entity within one
// attribute, by (attribute, entity) across all.
func scopeOrder(attr string) func(a, b element.FactKey) int {
	if attr != "" {
		return compareEntities
	}
	return compareKeys
}

// compareEntities orders keys of one attribute by entity.
func compareEntities(a, b element.FactKey) int {
	return strings.Compare(a.Entity, b.Entity)
}

// gather is the serial cross-shard gather behind List, Scan, and
// WriteSnapshot: pick appends each candidate head's selected clones, in
// key order, lock-free. A cold frame that fails to load is skipped: these
// surfaces have no error to report it through.
func (s *Store) gather(cfg readCfg, pick func(*head, []*element.Fact) []*element.Fact) []*element.Fact {
	cands, _ := s.candidates(cfg, ValueBounds{})
	var sc *coldScratch // allocated at the first cold candidate
	var out []*element.Fact
	for _, c := range cands {
		if c.h == nil && sc == nil {
			sc = new(coldScratch)
		}
		if h, _ := c.load(sc); h != nil {
			out = pick(h, out)
		}
	}
	return out
}

// gatherList runs the List gather for a pinned configuration.
func (s *Store) gatherList(cfg readCfg) []*element.Fact {
	return s.gather(cfg, func(h *head, out []*element.Fact) []*element.Fact {
		return pickInto(h, cfg, out)
	})
}

// pickInto appends the versions cfg selects from one head — the shared
// per-lineage body of the serial (gatherList) and partitioned
// (gatherPartitioned) cross-shard gathers, so both paths select and
// clone byte-identically by construction.
func pickInto(h *head, cfg readCfg, out []*element.Fact) []*element.Fact {
	if !cfg.allVersions {
		if f := h.pick(cfg); f != nil {
			out = append(out, cloneAt(f, cfg))
		}
		return out
	}
	for _, f := range h.believedAt(cfg.txAt, cfg.hasTxAt) {
		if cfg.hasDuring && !f.Validity.Overlaps(cfg.validDuring) {
			continue
		}
		if cfg.hasValidAt && !f.Validity.Contains(cfg.validAt) {
			continue
		}
		out = append(out, cloneAt(f, cfg))
	}
	return out
}
