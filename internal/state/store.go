// Package state implements the state repository of Figure 1 as a
// bitemporal database: every fact version carries a valid-time interval
// (when it held in the modeled world) and a transaction-time interval
// (when the store believed it), with point (as-of) and range (during)
// temporal queries along both axes, change notification, and append-only
// log persistence with recovery.
//
// The store realizes the paper's §3 proposal — "we model state as a
// collection of data elements annotated with their time of validity" — and
// the §3.3 suggestion to "implement the state component as a temporal
// database, thus enabling the query and retrieval of both the current
// state and historical data".
//
// The unit of storage is a lineage: the record history of one
// (entity, attribute) key. At every transaction time the believed versions
// of a lineage form an ordered, non-overlapping sequence, so exactly one
// version holds at every valid-time point — this is what prevents the
// "visitor simultaneously in multiple rooms" contradictions of §1.
// Retroactive writes supersede (never destroy) the record versions they
// revise: the superseded record keeps its original validity with a closed
// transaction-time interval, and trimmed replacements join the current
// belief. AsOfTransactionTime reads recover any past belief exactly.
//
// Lineages are hash-partitioned across an array of shards (see shard.go)
// whose locks serialize writers only: every lineage publishes an
// immutable head — the record and belief slices readers walk — through an
// atomic pointer, swapped on each mutation (copy-on-write with
// shared-prefix appends on the monotonic hot path). Readers resolve
// against published heads pinned at a transaction-clock instant, so
// cross-shard scans and snapshot handles never hold a shard lock and
// never stall a writer; see snapshot.go and DESIGN.md "Snapshot epochs".
//
// Durability is layered, not monolithic: the WAL (log.go) makes every
// mutation replayable, and the flush/recovery seam (flush.go — FlushCut,
// LoadLineage, Log.TruncateBefore) lets the segment backend
// (internal/state/segment) persist published heads as immutable segment
// files so recovery replays only the WAL tail since the last flush.
//
// *Store is the StateDB (db.go). It has two write shapes, one body each:
// the bitemporal Put/Delete with WriteOpts, which supersede whatever
// they overlap (apply), and the stream-append Replace/PutBatch, which
// replace at an instant and reject out-of-order writes (replaceLocked,
// batch.go).
package state

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/element"
	"repro/internal/temporal"
)

// ErrOutOfOrder reports a stream-append write (Replace, PutBatch) earlier
// than the key's latest believed version start: that shape requires
// per-key timestamp-monotonic updates. (The bitemporal Put/Delete instead
// treat such writes as retroactive corrections.)
var ErrOutOfOrder = errors.New("state: mutation out of timestamp order for key")

// ChangeKind classifies a state change event.
type ChangeKind int

// Change kinds delivered to watchers.
const (
	// Asserted: a new version became part of the state.
	Asserted ChangeKind = iota
	// Terminated: an open version's validity was closed (or a version was
	// superseded by a retroactive correction).
	Terminated
)

// String names the change kind.
func (k ChangeKind) String() string {
	if k == Asserted {
		return "asserted"
	}
	return "terminated"
}

// Change describes one state transition, delivered synchronously to
// batch watchers in mutation order.
type Change struct {
	Kind ChangeKind
	// Fact is the affected version. For Terminated changes the validity
	// reflects the new (closed) interval. The pointer is store-owned —
	// shared with the lineage rather than cloned, so the watched write
	// path stays allocation-free — which means its belief end may keep
	// moving after delivery: watchers must not mutate it and must read
	// the supersession state through the atomic accessors (BeliefEnd,
	// Superseded, Clone), never the raw SupersededAt field.
	Fact *element.Fact
	// At is the application time of the transition.
	At temporal.Instant
}

// BatchWatcher observes the full change set of one mutation (a Put,
// Delete or Replace, or one PutBatch call) in a single callback. It is
// the store's one observer: the engine's watermark capture and the
// reasoner's dirty mark register through WatchBatch. Watchers run
// synchronously after the mutation commits (outside the shard lock), in
// mutation order for a single mutator; under concurrent mutators a
// watcher may observe store state newer than its changes. The slice is
// store-owned scratch, valid only for the duration of the call:
// implementations must copy out the Change structs they retain and never
// keep the slice itself.
type BatchWatcher func([]Change)

// lineage is the bitemporal record history of one key. All of its data
// lives in the published head; the lineage itself is just the stable
// identity the shard directory and key map point at.
type lineage struct {
	key  element.FactKey
	head atomic.Pointer[head]

	// access is the lineage's recency stamp — the store's accessSeq value
	// at its last point read or write — consumed by EvictToBudget's LRU
	// ordering. Stamped only when access tracking is enabled (budgeted
	// stores; see SetAccessTracking), so unbudgeted reads pay nothing.
	access atomic.Int64
}

// head is the published, immutable read state of one lineage. A mutation
// builds a successor head and swaps the lineage's pointer; readers load
// the pointer once and walk a consistent value without locks.
//
// Immutability is structural, with two deliberate sharing rules that keep
// the monotonic hot path O(1):
//
//   - records and closed are append-only across successor heads: a
//     successor may append into spare capacity of the shared backing
//     array, beyond every previously published length. Readers never
//     index past their own head's length, and the atomic head swap
//     publishes the appended elements (release/acquire).
//   - the facts themselves are immutable except SupersededAt, which a
//     later write closes in place via Fact.MarkSuperseded; readers use
//     the atomic accessors (Fact.VisibleAt / BeliefEnd / Clone).
//
// Any other shape of change (mid-slice insertion or removal) copies the
// affected slices into fresh arrays.
type head struct {
	// records holds every version ever written, in recording order.
	records []*element.Fact
	// closed is the current belief's versions with closed validity, in
	// validity order with pairwise disjoint intervals.
	closed []*element.Fact
	// open is the current belief's open ("until further notice") version,
	// nil when none. Because beliefs are disjoint, open always follows
	// every closed version in validity order.
	open *element.Fact
	// maxTx is the highest transaction time that has touched this
	// lineage (a commit or a supersession). A reader pinned at
	// tt >= maxTx can resolve against the belief slices directly;
	// earlier pins fall back to the record scan. The durability flusher
	// revisits a lineage when its maxTx passes the previous cut.
	maxTx temporal.Instant
	// txOrdered tracks whether records are non-decreasing in RecordedAt —
	// always true unless a caller pinned out-of-order explicit transaction
	// times — enabling binary-searched belief reads.
	txOrdered bool
	// vMin/vMax are the lineage's numeric value envelope: inclusive
	// bounds covering the value of every record in this head. vNumeric
	// reports that the head has at least one record and every record's
	// value is numeric (int or float) — only then may a scan skip the
	// lineage on a disjoint ValueBounds (see skipByBounds): with the
	// whole record set inside a disjoint envelope, no read of any
	// temporal shape or pin can select a record satisfying the bound.
	// The envelope is maintained at every head-construction site
	// (commit, buildHead) and published with the head, so index reads
	// are as lock-free as head reads.
	vMin, vMax float64
	vNumeric   bool
}

// emptyHead is the shared head of a lineage with no records yet.
var emptyHead = &head{maxTx: temporal.MinInstant, txOrdered: true}

// observeValue folds one new record value into the head's numeric value
// envelope. hadRecords distinguishes the lineage's first record (which
// seeds the bounds) from later ones (which widen them). Any non-numeric
// value permanently voids vNumeric for the head chain — a mixed lineage
// is never envelope-pruned.
func (h *head) observeValue(v element.Value, hadRecords bool) {
	f, ok := v.AsFloat()
	if !ok {
		h.vNumeric = false
		return
	}
	if !hadRecords {
		h.vMin, h.vMax, h.vNumeric = f, f, true
		return
	}
	if !h.vNumeric {
		return
	}
	if f < h.vMin {
		h.vMin = f
	}
	if f > h.vMax {
		h.vMax = f
	}
}

// recomputeValueEnv rebuilds the value envelope from h.records, for heads
// assembled from a detached record slice (fill).
func (h *head) recomputeValueEnv() {
	for i, f := range h.records {
		h.observeValue(f.Value, i > 0)
	}
}

// skipByBounds reports whether no record of this head can satisfy b:
// the lineage is non-empty, purely numeric, and its whole-history value
// envelope is disjoint from the bound — a prune for reads of every
// temporal shape and pin. Lineages holding any non-numeric record are
// never skipped by it: their non-numeric rows are the pushed
// predicate's to decide. A current read can prune by less: see skipOpen.
func (h *head) skipByBounds(b ValueBounds) bool {
	return h.vNumeric && b.disjoint(h.vMin, h.vMax)
}

// skipOpen reports whether a read of a shape that selects the open
// version (ScanShape.SelectsOpen), configured as cfg, selects no row
// from this head that b admits. Read without a belief pin, or pinned at
// or after maxTx, such a read selects exactly h.open (see pick), so an
// absent open version, or one whose numeric value b excludes, proves
// it, however wide the history's envelope. An earlier pin may select a
// since-superseded version instead, and is never pruned here.
func (h *head) skipOpen(cfg readCfg, b ValueBounds) bool {
	return (!cfg.hasTxAt || h.maxTx <= cfg.txAt) && b.ExcludesOpen(openValueOf(h.open))
}

// nLive reports the number of believed versions.
func (h *head) nLive() int {
	n := len(h.closed)
	if h.open != nil {
		n++
	}
	return n
}

// liveAt returns the i-th believed version in validity order.
func (h *head) liveAt(i int) *element.Fact {
	if i < len(h.closed) {
		return h.closed[i]
	}
	return h.open
}

// lastLive returns the believed version with the latest validity start.
func (h *head) lastLive() *element.Fact {
	if h.open != nil {
		return h.open
	}
	if n := len(h.closed); n > 0 {
		return h.closed[n-1]
	}
	return nil
}

// validAt resolves the current belief's version valid at t.
func (h *head) validAt(t temporal.Instant) *element.Fact {
	i := sort.Search(len(h.closed), func(k int) bool {
		return h.closed[k].Validity.End > t
	})
	if i < len(h.closed) && h.closed[i].Validity.Contains(t) {
		return h.closed[i]
	}
	if h.open != nil && h.open.Validity.Contains(t) {
		return h.open
	}
	return nil
}

// pick resolves a point read against this head: the version selected by
// validAt/txAt. Belief-pinned reads resolve against the live slices first
// — for a pin at or after every write that touched the lineage (the
// common case: scans pin the clock's high-water mark, the engine pins
// watermarks) the believed version IS the belief at the pin, so the read
// costs the same as a current-belief read. Only genuinely historical pins
// walk the record history.
func (h *head) pick(cfg readCfg) *element.Fact {
	if !cfg.hasTxAt {
		if !cfg.hasValidAt {
			return h.open
		}
		return h.validAt(cfg.validAt)
	}
	tt := cfg.txAt
	var cand *element.Fact
	if !cfg.hasValidAt {
		cand = h.open
	} else {
		cand = h.validAt(cfg.validAt)
	}
	if cand != nil && cand.VisibleAt(tt) && (h.txOrdered || h.maxTx <= tt) {
		// cand is believed at tt and is the unique answer: with tx-ordered
		// records, any other version visible at tt with the same shape
		// would have been superseded when cand was recorded; with
		// maxTx <= tt, the visible-at-tt set IS the live set (every
		// supersession happened at or before tt). Out-of-order explicit
		// transaction times void the first argument — an older-recorded
		// version may remain visible at tt alongside cand — so such
		// lineages take the best-by-RecordedAt scan below for genuinely
		// historical pins.
		return cand
	}
	if cand == nil && h.maxTx <= tt {
		// Every record of this head was written at or before tt, so the
		// live resolution above already was the belief at tt.
		return nil
	}
	matches := func(f *element.Fact) bool {
		if !cfg.hasValidAt {
			return f.IsCurrent()
		}
		return f.Validity.Contains(cfg.validAt)
	}
	if h.txOrdered {
		// Records are ordered by RecordedAt, so the belief at tt lives in
		// the recorded-by-tt prefix; scanning it backwards, the first
		// visible match is the unique believed version (beliefs are
		// disjoint, and anything recorded later in the prefix supersedes
		// earlier overlapping records).
		hi := sort.Search(len(h.records), func(k int) bool {
			return h.records[k].RecordedAt > tt
		})
		for i := hi - 1; i >= 0; i-- {
			if f := h.records[i]; f.VisibleAt(tt) && matches(f) {
				return f
			}
		}
		return nil
	}
	var best *element.Fact
	for _, f := range h.records {
		if !f.VisibleAt(tt) || !matches(f) {
			continue
		}
		if best == nil || f.RecordedAt > best.RecordedAt {
			best = f
		}
	}
	return best
}

// believedAt returns the versions believed at tt (the current belief when
// pinned is false), ordered by validity start. The caller may not mutate
// the result when it aliases the head's own slices; gather paths clone
// facts as they copy them out.
func (h *head) believedAt(tt temporal.Instant, pinned bool) []*element.Fact {
	if !pinned || h.maxTx <= tt {
		// The live slices are the belief at tt: versions superseded after
		// the head was built carry BeliefEnd > maxTx. (A concurrent
		// explicit past transaction time could violate that bound; such
		// writes forfeit scan isolation — see DESIGN.md.)
		if h.open == nil {
			return h.closed
		}
		out := make([]*element.Fact, 0, len(h.closed)+1)
		out = append(out, h.closed...)
		return append(out, h.open)
	}
	var out []*element.Fact
	for _, f := range h.records {
		if f.VisibleAt(tt) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Validity.Start != out[j].Validity.Start {
			return out[i].Validity.Start < out[j].Validity.Start
		}
		return out[i].RecordedAt < out[j].RecordedAt
	})
	return out
}

// overlappingLive returns the believed versions overlapping w, in order.
func (h *head) overlappingLive(w temporal.Interval) []*element.Fact {
	i := sort.Search(len(h.closed), func(k int) bool {
		return h.closed[k].Validity.End > w.Start
	})
	j := i
	for j < len(h.closed) && h.closed[j].Validity.Start < w.End {
		j++
	}
	var out []*element.Fact
	if i < j {
		out = append(out, h.closed[i:j]...)
	}
	if h.open != nil && h.open.Validity.Overlaps(w) {
		out = append(out, h.open)
	}
	return out
}

// Store is the state repository. It is safe for concurrent use: lineages
// are hash-partitioned across shards (shard.go) whose locks serialize
// writers, while readers resolve against atomically published heads.
type Store struct {
	shards    []*shard
	shardMask uint64
	clock     txClock

	// obsMu guards the mutation observers: the watcher list and the
	// attached log. Both are read at the start of every mutation and
	// written only by WatchBatch/AttachLog.
	obsMu   sync.RWMutex
	batchWs []BatchWatcher
	log     *Log

	// cold is the installed cold-read backend (see ColdSource in
	// evict.go): reads for non-resident lineages fall through to it and
	// scans union its durable-only lineages into the gather. Nil when
	// the store is purely RAM-resident.
	cold atomic.Pointer[coldSourceRef]

	// accessSeq is the recency clock for eviction's LRU ordering; each
	// tracked access stamps its lineage with the next value. trackAccess
	// gates the stamping — only budgeted stores pay the atomics.
	accessSeq   atomic.Int64
	trackAccess atomic.Bool

	// orders caches each scan scope's sorted candidate order (see
	// candOrder in gather.go) with the resolution of its cold keys,
	// rebuilt by the first scan after a shard's directory changes and
	// dropped at eviction; a catalog publish drops only the resolutions.
	orders atomic.Pointer[orderSet]
}

// NewStore returns an empty store with a GOMAXPROCS-scaled shard count.
func NewStore() *Store {
	return NewStoreWithShards(0)
}

// NewStoreWithShards returns an empty store with a fixed shard count,
// rounded up to a power of two. n == 1 yields the single-lock layout of
// the pre-sharding store (every lineage behind one mutex) — useful as a
// contention baseline; n <= 0 selects the GOMAXPROCS-scaled default.
func NewStoreWithShards(n int) *Store {
	if n <= 0 {
		n = defaultShardCount()
	}
	n = nextPowerOfTwo(n)
	s := &Store{
		shards:    make([]*shard, n),
		shardMask: uint64(n - 1),
	}
	s.orders.Store(noOrders)
	for i := range s.shards {
		sh := &shard{byKey: make(map[element.FactKey]*lineage), evicted: make(map[element.FactKey]bool)}
		sh.pub.Store(emptyPub)
		s.shards[i] = sh
	}
	return s
}

// ShardCount reports the number of shards the store partitions its
// lineages across.
func (s *Store) ShardCount() int { return len(s.shards) }

// AttachLog makes the store append every mutation to the given log. Attach
// before the first mutation; mutations made earlier are not re-logged.
func (s *Store) AttachLog(l *Log) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	s.log = l
}

// Commit writes the Replaces staged in the attached log as one WAL frame
// (see Log.Commit); nil when no log is attached. The engine commits at
// each micro-batch edge and before Run or Process returns.
func (s *Store) Commit() error {
	if _, log := s.observers(); log != nil {
		return log.Commit()
	}
	return nil
}

// WatchBatch registers a batch watcher for all subsequent changes.
func (s *Store) WatchBatch(w BatchWatcher) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	s.batchWs = append(s.batchWs, w)
}

// observers snapshots the watcher list and attached log for one mutation.
func (s *Store) observers() ([]BatchWatcher, *Log) {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return s.batchWs, s.log
}

// changeBufs recycles the per-mutation change scratch: with any watcher
// registered every write assembles a []Change, and at ingest rates a
// fresh slice per element is pure GC pressure. Buffers are cleared of
// fact pointers before pooling so they never pin lineage memory.
var changeBufs = sync.Pool{New: func() any { return new([]Change) }}

// takeChangeBuf borrows an empty change buffer from the pool.
func takeChangeBuf() *[]Change {
	return changeBufs.Get().(*[]Change)
}

// putChangeBuf clears and returns a change buffer to the pool. Safe only
// after every observer of the buffer has returned: batch watchers must
// not retain the slice.
func putChangeBuf(bp *[]Change, changes []Change) {
	for i := range changes {
		changes[i] = Change{}
	}
	*bp = changes[:0]
	changeBufs.Put(bp)
}

// AdvanceClock advances the transaction clock's high-water mark to at
// least t, so every subsequent default-clock write — on any shard —
// commits strictly after t. The engine calls this when its watermark
// advances: a snapshot handle pinned at the watermark then reads one
// consistent multi-shard cut that later default writes cannot disturb.
func (s *Store) AdvanceClock(t temporal.Instant) {
	s.clock.observe(t)
}

// notifyAll dispatches committed changes to the given watcher snapshot,
// the whole set in one call per watcher; call only after releasing the
// shard lock.
func notifyAll(bws []BatchWatcher, changes []Change) {
	if len(changes) == 0 {
		return
	}
	for _, w := range bws {
		w(changes)
	}
}

// writeReq is one resolved-or-resolvable bitemporal mutation against a
// lineage: Put, Delete and WAL replay all funnel into apply. Like
// readCfg, its temporal selectors are value+flag pairs so building a
// request does not heap-allocate the instants.
type writeReq struct {
	entity, attr string
	value        element.Value
	validFrom    temporal.Instant // meaningful when hasValidFrom; else the resolved transaction time
	hasValidFrom bool
	validTo      temporal.Instant // meaningful when hasValidTo; else Forever
	hasValidTo   bool
	tx           temporal.Instant // meaningful when hasTx; else the store's transaction clock
	hasTx        bool
	derived      bool
	source       string
	isDelete     bool
}

// mutate runs one single-shard write: body runs under sh's write lock
// with the attached log and, when anyone watches, pooled change scratch
// to append to. On success the changes are delivered. It is the frame
// around both single-key write bodies, apply and Replace.
func (s *Store) mutate(sh *shard, body func(log *Log, changes []Change, record bool) ([]Change, error)) error {
	bws, log := s.observers()
	record := len(bws) > 0
	var (
		changes []Change
		bufp    *[]Change
	)
	if record {
		bufp = takeChangeBuf()
		changes = *bufp
	}
	sh.mu.Lock()
	changes, err := body(log, changes, record)
	sh.mu.Unlock()
	if err == nil {
		notifyAll(bws, changes)
	}
	if bufp != nil {
		putChangeBuf(bufp, changes)
	}
	return err
}

// apply validates, logs, and commits one bitemporal mutation: the write
// supersedes every believed version its valid interval overlaps.
func (s *Store) apply(r writeReq) error {
	sh := s.shardFor(r.entity, r.attr)
	return s.mutate(sh, func(log *Log, changes []Change, record bool) ([]Change, error) {
		// Resolve the transaction time and valid interval. Without an
		// explicit WithTransactionTime, the write reserves the next tick
		// of the transaction clock (one past its high-water mark, or the
		// valid-time start when that is later), so concurrent default
		// writes get distinct belief intervals and every superseded belief
		// stays recoverable. A reserved tick is consumed even when
		// validation or logging fails below: the clock only ever moves
		// forward.
		var tx temporal.Instant
		if r.hasTx {
			tx = r.tx
		} else {
			floor := temporal.MinInstant
			if r.hasValidFrom {
				floor = r.validFrom
			}
			tx = s.clock.reserve(floor)
		}
		from := tx
		if r.hasValidFrom {
			from = r.validFrom
		}
		to := temporal.Forever
		if r.hasValidTo {
			to = r.validTo
		}
		w := temporal.NewInterval(from, to)
		key := element.FactKey{Entity: r.entity, Attribute: r.attr}
		if w.IsEmpty() {
			return changes, fmt.Errorf("state: write %s: empty validity %s", key, w)
		}

		l := sh.byKey[key]
		if l == nil {
			// A write (or delete) to an evicted key must restore the
			// durable record history first: committing onto a fresh
			// lineage would make the next flush frame supersede history
			// the store no longer sees.
			var err error
			if l, err = s.faultIn(sh, key); err != nil {
				return changes, err
			}
		}
		if r.isDelete && (l == nil || l.head.Load().overlappingLive(w) == nil) {
			// Deleting where nothing is believed is a no-op, not even logged.
			return changes, nil
		}
		if l == nil {
			l = sh.lineage(key, true)
		}
		s.touch(l)

		var put *element.Fact
		if !r.isDelete {
			put = element.NewFact(r.entity, r.attr, r.value, w)
			put.Derived = r.derived
			put.Source = r.source
			put.RecordedAt = tx
			put.SupersededAt = temporal.Forever
		}

		// Log before mutating: validation is complete and the mutation
		// below cannot fail, so a log error leaves the store untouched.
		// The log serializes appends from concurrent shards through its
		// single-appender channel.
		if log != nil {
			var err error
			if r.isDelete {
				err = log.appendDelete(r.entity, r.attr, w, tx)
			} else {
				err = log.appendPutBi(put)
			}
			if err != nil {
				return changes, err
			}
		}
		s.clock.observe(tx)
		return sh.commit(l, put, w, tx, changes, record), nil
	})
}

// commit applies one validated mutation to a lineage under the shard lock
// and publishes the successor head. It supersedes the believed versions
// the write interval w overlaps — re-recording the portions outside w as
// fresh records — and inserts put (when non-nil) as a new believed
// version; a delete (nil put) must overlap something, which apply
// checks. With record set, every superseded version appends one
// Terminated change (carrying the left remnant when the write truncates
// it, the superseded version itself when the write covers it entirely)
// and the insert appends one Asserted change. Change facts are the
// store-owned pointers, not clones — recording adds no allocations
// beyond the changes slice itself. Callers hold sh.mu.
func (sh *shard) commit(l *lineage, put *element.Fact, w temporal.Interval, tx temporal.Instant, changes []Change, record bool) []Change {
	h := l.head.Load()
	nh := &head{txOrdered: h.txOrdered, maxTx: h.maxTx,
		vMin: h.vMin, vMax: h.vMax, vNumeric: h.vNumeric}
	if put != nil {
		// Re-recorded remnants reuse values already inside the envelope,
		// so the insert is the only value a commit needs to observe.
		nh.observeValue(put.Value, len(h.records) > 0)
	}
	if tx > nh.maxTx {
		nh.maxTx = tx
	}
	if n := len(h.records); n > 0 && tx < h.records[n-1].RecordedAt {
		nh.txOrdered = false
	}
	appended := 0
	var addedBytes int64

	// Fast path: a replace-shaped write — open-ended interval starting at
	// or after every believed version — touches at most the open version
	// and only ever appends at the tails, so the successor head shares
	// the records and closed backing arrays (shared-prefix append).
	lastClosedEnd := temporal.MinInstant
	if n := len(h.closed); n > 0 {
		lastClosedEnd = h.closed[n-1].Validity.End
	}
	if put != nil && w.End == temporal.Forever && lastClosedEnd <= w.Start &&
		(h.open == nil || w.Start >= h.open.Validity.Start) {
		records, closed := h.records, h.closed
		if o := h.open; o != nil {
			o.MarkSuperseded(tx)
			sh.versions.Add(-1)
			var left *element.Fact
			if o.Validity.Start < w.Start {
				left = sh.reRecord(o, temporal.NewInterval(o.Validity.Start, w.Start), tx)
				records = append(records, left)
				closed = append(closed, left)
				appended++
				addedBytes += approxFactBytes(left)
				sh.versions.Add(1)
			}
			if record {
				ev := o
				if left != nil {
					ev = left
				}
				changes = append(changes, Change{Kind: Terminated, Fact: ev, At: tx})
			}
		}
		records = append(records, put)
		appended++
		addedBytes += approxFactBytes(put)
		sh.versions.Add(1)
		nh.records, nh.closed, nh.open = records, closed, put
		if record {
			changes = append(changes, Change{Kind: Asserted, Fact: put, At: w.Start})
		}
		sh.records.Add(int64(appended))
		sh.bytes.Add(addedBytes)
		l.head.Store(nh)
		return changes
	}

	// General path: retroactive or bounded writes and deletes. The belief
	// slices are rebuilt into fresh arrays; records still appends onto the
	// shared history.
	over := h.overlappingLive(w)
	records := h.records
	newLive := make([]*element.Fact, 0, h.nLive()+2)
	for i, n := 0, h.nLive(); i < n; i++ {
		f := h.liveAt(i)
		superseded := false
		for _, v := range over {
			if v == f {
				superseded = true
				break
			}
		}
		if !superseded {
			newLive = append(newLive, f)
		}
	}
	for _, v := range over {
		v.MarkSuperseded(tx)
		sh.versions.Add(-1)
		var left *element.Fact
		if v.Validity.Start < w.Start {
			left = sh.reRecord(v, temporal.NewInterval(v.Validity.Start, w.Start), tx)
			records = append(records, left)
			newLive = append(newLive, left)
			appended++
			addedBytes += approxFactBytes(left)
			sh.versions.Add(1)
		}
		if w.End < v.Validity.End {
			right := sh.reRecord(v, temporal.NewInterval(w.End, v.Validity.End), tx)
			records = append(records, right)
			newLive = append(newLive, right)
			appended++
			addedBytes += approxFactBytes(right)
			sh.versions.Add(1)
		}
		if record {
			ev := v
			if left != nil {
				ev = left
			}
			changes = append(changes, Change{Kind: Terminated, Fact: ev, At: tx})
		}
	}
	if put != nil {
		records = append(records, put)
		newLive = append(newLive, put)
		appended++
		addedBytes += approxFactBytes(put)
		sh.versions.Add(1)
		if record {
			changes = append(changes, Change{Kind: Asserted, Fact: put, At: w.Start})
		}
	}
	sort.Slice(newLive, func(i, j int) bool {
		return newLive[i].Validity.Start < newLive[j].Validity.Start
	})
	if n := len(newLive); n > 0 && newLive[n-1].IsCurrent() {
		nh.open = newLive[n-1]
		newLive = newLive[:n-1]
	}
	nh.records, nh.closed = records, newLive
	sh.records.Add(int64(appended))
	sh.bytes.Add(addedBytes)
	l.head.Store(nh)
	return changes
}

// reRecord builds a trimmed replacement for a superseded version: same
// value and provenance, validity iv, recorded at tx. The caller links it
// into the successor head's slices.
func (sh *shard) reRecord(v *element.Fact, iv temporal.Interval, tx temporal.Instant) *element.Fact {
	c := v.Clone()
	c.Validity = iv
	c.RecordedAt = tx
	c.SupersededAt = temporal.Forever
	return c
}

// findPick resolves one point read against the key's published head: the
// shard's read lock covers only the O(1) byKey probe, the head walk is
// lock-free. Every point-read surface (Store and Snapshot, Find and the
// spec/value forms) funnels through it. A key with no resident lineage
// resolves through coldHead (an evicted lineage, whose durable frame
// holds its whole record history), pruned by the read's valid and
// transaction pins.
func (s *Store) findPick(entity, attr string, cfg readCfg) *element.Fact {
	key := element.FactKey{Entity: entity, Attribute: attr}
	l := s.shardFor(entity, attr).get(key)
	if l == nil {
		shape := ScanShape{ValidAt: cfg.validAt, HasValidAt: cfg.hasValidAt, TxAt: cfg.txAt, HasTxAt: cfg.hasTxAt}
		if h := s.coldHead(key, shape); h != nil {
			return h.pick(cfg)
		}
		return nil
	}
	s.touch(l)
	return l.head.Load().pick(cfg)
}

// restoreAt maps a record's belief end into the cut at tt: a
// supersession recorded after tt was not yet part of that belief, so it
// comes back open. This single helper carries the cut-reconstruction
// invariant for every pinned read surface (cloneAt, Scan, recordsAt),
// keeping pinned reads self-contained and REPEATABLE — re-reading a
// snapshot handle yields identical facts even after a later write closes
// a record's belief interval in place — and matching what restoring the
// cut's WriteSnapshot would return.
func restoreAt(end, tt temporal.Instant) temporal.Instant {
	if end > tt {
		return temporal.Forever
	}
	return end
}

// cloneAt clones f for a reader, applying restoreAt for belief-pinned
// configurations.
func cloneAt(f *element.Fact, cfg readCfg) *element.Fact {
	c := f.Clone()
	if cfg.hasTxAt {
		c.SupersededAt = restoreAt(c.SupersededAt, cfg.txAt)
	}
	return c
}

// findClone is findPick plus the pinned-read clone semantics.
func (s *Store) findClone(entity, attr string, cfg readCfg) (*element.Fact, bool) {
	if f := s.findPick(entity, attr, cfg); f != nil {
		return cloneAt(f, cfg), true
	}
	return nil, false
}

// Find returns the version of (entity, attr) selected by the read options:
// by default the open version in the current belief; AsOfValidTime selects
// by valid time, AsOfTransactionTime by belief. Find locks the lineage's
// shard only for the O(1) key-map probe; the head walk is lock-free.
func (s *Store) Find(entity, attr string, opts ...ReadOpt) (*element.Fact, bool) {
	return s.findClone(entity, attr, newReadCfg(opts))
}

// FindValue returns just the value of the version Find would select with
// the spec's options. Because element.Value is a plain struct, the read
// allocates nothing: no option closures and no defensive Fact clone. This
// is the engine's gate/enrichment read.
func (s *Store) FindValue(entity, attr string, spec ReadSpec) (element.Value, bool) {
	if f := s.findPick(entity, attr, spec.cfg()); f != nil {
		return f.Value, true
	}
	return element.Null, false
}

// pinBarrier establishes a transaction-time pin with the publication
// guarantee cross-shard readers need: when it returns, every write with a
// transaction time at or before the returned instant has published its
// head. It reads the clock's high-water mark, then handshakes each
// shard's lock in index order — RLock immediately followed by RUnlock —
// which drains any writer that was mid-commit when the mark was read
// (writers reserve/observe their tick and publish inside one critical
// section). Later default-clock writes reserve past the mark and filter
// out of the pinned cut by visibility.
//
// The handshake never holds more than one lock and each hold is O(1), so
// a spinning scanner delays any writer by at most one handshake — this,
// not a lock held across the gather, is the entire lock footprint of the
// scan paths. (A concurrent writer pinning an explicit transaction time
// at or before the mark can still commit "into" the cut; see the caveat
// in snapshot.go.)
func (s *Store) pinBarrier() temporal.Instant {
	t := s.clock.now()
	for _, sh := range s.shards {
		sh.mu.RLock()
		_ = len(sh.byKey) // non-empty critical section; the lock pair is the barrier
		sh.mu.RUnlock()
	}
	return t
}

// pinned returns the read configuration with its belief instant resolved:
// a read without AsOfTransactionTime pins the clock's high-water mark
// behind the publication barrier, so a cross-shard gather observes one
// consistent cut — every default-clock write committing during the
// gather carries a later transaction time and filters out. This is the
// snapshot-epoch read protocol; see DESIGN.md "Snapshot epochs".
func (s *Store) pinned(cfg readCfg) readCfg {
	if !cfg.hasTxAt {
		cfg.txAt, cfg.hasTxAt = s.pinBarrier(), true
	} else {
		// Explicit SYSTEM TIME reads still drain mid-commit writers, so a
		// read at an instant the caller just wrote resolves completely.
		s.pinBarrier()
	}
	return cfg
}

// List returns one selected version per key — or, with AllVersions /
// DuringValidTime, every matching version — sorted by (attribute, entity,
// validity start). WithAttribute scopes the scan to one attribute. List is
// a cross-shard read pinned at one transaction-clock instant: it acquires
// no shard locks and never stalls a writer, yet the result is one
// consistent cut of the whole store.
func (s *Store) List(opts ...ReadOpt) []*element.Fact {
	return s.gatherList(s.pinned(newReadCfg(opts)))
}

// Put writes v for (entity, attr) over the write options' valid interval
// (default [transaction time, Forever)), superseding the overlapped
// portions of believed versions at the write's transaction time. A valid
// interval earlier than existing versions is a retroactive correction.
func (s *Store) Put(entity, attr string, v element.Value, opts ...WriteOpt) error {
	r := writeReq{entity: entity, attr: attr, value: v}
	newWriteCfg(opts).fill(&r)
	return s.apply(r)
}

// Delete removes any value of (entity, attr) over the write options' valid
// interval (default [transaction time, Forever)), superseding the
// overlapped versions at the write's transaction time. Deleting where
// nothing is believed is a no-op.
func (s *Store) Delete(entity, attr string, opts ...WriteOpt) error {
	r := writeReq{entity: entity, attr: attr, isDelete: true}
	newWriteCfg(opts).fill(&r)
	return s.apply(r)
}

// History returns the version history of (entity, attr): by default the
// current-belief versions in validity order; under AsOfTransactionTime the
// versions believed then; with AllVersions every record ever written —
// including superseded ones — in recording order, and combined with
// AsOfTransactionTime the audit trail of the cut at that instant (records
// recorded by then, supersessions after it undone). Like Find, History
// locks the shard only for the key probe.
func (s *Store) History(entity, attr string, opts ...ReadOpt) []*element.Fact {
	cfg := newReadCfg(opts)
	key := element.FactKey{Entity: entity, Attribute: attr}
	l := s.shardFor(entity, attr).get(key)
	var h *head
	if l == nil {
		// Only the belief pin prunes: closed records answer histories.
		h = s.coldHead(key, ScanShape{TxAt: cfg.txAt, HasTxAt: cfg.hasTxAt, AllVersions: true})
		if h == nil {
			return nil
		}
	} else {
		s.touch(l)
		h = l.head.Load()
	}
	if cfg.allVersions {
		if cfg.hasTxAt {
			return recordsAt(h, cfg.txAt, nil)
		}
		out := make([]*element.Fact, len(h.records))
		for i, f := range h.records {
			out[i] = f.Clone()
		}
		return out
	}
	src := h.believedAt(cfg.txAt, cfg.hasTxAt)
	out := make([]*element.Fact, len(src))
	for i, f := range src {
		out[i] = cloneAt(f, cfg)
	}
	return out
}

// recordsAt clones one head's records of the cut at tt, in recording
// order: records recorded after tt are excluded, and a belief interval
// closed after tt is restored to open — the per-lineage form of the
// WriteSnapshot cut. Shared by allRecordsAt and the AllVersions history
// surfaces so the cut-reconstruction invariant lives in one place.
func recordsAt(h *head, tt temporal.Instant, dst []*element.Fact) []*element.Fact {
	for _, f := range h.records {
		if f.RecordedAt > tt {
			continue
		}
		c := f.Clone()
		c.SupersededAt = restoreAt(c.SupersededAt, tt)
		dst = append(dst, c)
	}
	return dst
}

// Scan returns clones of every version believed at the scan's pinned
// instant (current and historical) matching pred, sorted by (attribute,
// entity, start). A nil pred matches all. Like List, Scan is pinned at
// the clock's high-water mark and acquires no shard locks. The predicate
// never sees a store-owned fact: it is evaluated on a reused scratch
// copy (taken with the atomic SupersededAt read), so predicates may read
// any field directly without racing a concurrent writer's supersession,
// while only MATCHING versions pay a heap clone. The predicate's argument
// is valid only for the duration of the call; facts in the result are
// fresh, private clones.
func (s *Store) Scan(pred func(*element.Fact) bool) []*element.Fact {
	tt := s.pinBarrier()
	var scratch element.Fact
	cfg := readCfg{txAt: tt, hasTxAt: true, allVersions: true}
	return s.gather(cfg, func(h *head, out []*element.Fact) []*element.Fact {
		for _, f := range h.believedAt(tt, true) {
			scratch = f.Copy()
			scratch.SupersededAt = restoreAt(scratch.SupersededAt, tt)
			if pred == nil || pred(&scratch) {
				c := scratch
				out = append(out, &c)
			}
		}
		return out
	})
}

// Stats summarizes store occupancy.
type Stats struct {
	// Keys is the number of (entity, attribute) lineages.
	Keys int
	// Versions is the number of believed fact versions.
	Versions int
	// Current is the number of open believed versions.
	Current int
	// Attributes is the number of distinct attributes.
	Attributes int
	// Records is the total number of stored records, including versions
	// superseded by retroactive corrections.
	Records int
	// Superseded is the number of records no longer part of the current
	// belief (Records - Versions).
	Superseded int
	// TxHigh is the transaction clock's high-water mark.
	TxHigh temporal.Instant
	// Shards is the number of lock-striped partitions.
	Shards int
}

// Stats returns current occupancy counters. Since the snapshot-epoch
// refactor the counters are per-shard atomics summed without any shard
// lock, so Stats never stalls a writer; each counter is internally
// consistent, and at quiescence the summary is exact. (No pin barrier:
// the summary is a racy instantaneous reading by design, so draining
// mid-commit writers would buy nothing.)
func (s *Store) Stats() Stats {
	st := Stats{TxHigh: s.clock.now(), Shards: len(s.shards)}
	attrs := make(map[string]struct{})
	for _, sh := range s.shards {
		pub := sh.pub.Load()
		st.Keys += pub.n
		st.Versions += int(sh.versions.Load())
		st.Records += int(sh.records.Load())
		for a, lins := range pub.byAttr {
			attrs[a] = struct{}{}
			for _, l := range lins {
				if l.head.Load().open != nil {
					st.Current++
				}
			}
		}
	}
	st.Attributes = len(attrs)
	st.Superseded = st.Records - st.Versions
	return st
}
