// Shard layout of the state repository. The store hash-partitions its
// lineages into a power-of-two array of shards; the shard of a lineage is
// fixed by an FNV-1a hash of its `entity#attribute` key, the same key
// that names the lineage everywhere else.
//
// Since the snapshot-epoch refactor the shard lock serializes WRITERS
// only. Every lineage publishes an immutable head (see head in store.go)
// through an atomic pointer, and each shard publishes an immutable
// lineage directory (pubIndex) the same way, so the read side never
// takes a shard lock for the data itself.
//
// Locking protocol:
//
//   - Mutations (apply, PutBatch, fault-ins) take the owning shard's
//     write lock: the lock orders writers of the same shard; readers are
//     ordered by the atomic head publication instead.
//   - Point reads (Find/FindValue, History) take
//     the shard's read lock ONLY for the byKey map lookup — an O(1)
//     critical section — then release it and walk the published head
//     lock-free. A writer therefore never waits on a reader for longer
//     than one map probe.
//   - Cross-shard reads (List, Scan, Stats, WriteSnapshot, Snapshot
//     handles) acquire NO shard locks at all: they pin a transaction-time
//     instant from the clock, load each shard's published directory and
//     each lineage's published head, and filter by belief visibility at
//     the pin. See "Snapshot epochs" in DESIGN.md for the protocol and
//     its memory model.
//   - Eviction (EvictToBudget, evict.go) moves keys from the resident to
//     the cold half of the directory in one publication under the write
//     lock, so a scan always loads a consistent (resident, cold) pair and
//     writers a consistent (byKey, evicted, pub) triple. Eviction is the
//     only way a lineage leaves RAM. Cold reads take no shard locks:
//     point reads fall through to the ColdSource after the byKey probe
//     misses; scans filter their order's resolution of the published
//     cold keys, made against it once per catalog. A write
//     to an evicted key faults its history back in (store.faultIn) under
//     the write lock its mutation already holds.
//
// The transaction clock and the WAL are intentionally not sharded: the
// clock is a single atomic high-water mark (see txclock.go) and the log
// serializes appends through its single-appender channel (see log.go), so
// replay order — and therefore recovery — stays deterministic.

package state

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/element"
)

// shard owns one partition of the store's lineages.
type shard struct {
	// mu serializes mutators of this shard and guards byKey. Readers use
	// it only for the O(1) byKey probe of point reads; the scan paths
	// never take it.
	mu    sync.RWMutex
	byKey map[element.FactKey]*lineage

	// evicted marks keys the residency budget removed from byKey whose
	// record history lives only in durable frames. The write path must
	// fault such a key back in before mutating it (store.faultIn); read
	// paths use the published cold keys instead. Guarded by mu.
	evicted map[element.FactKey]bool

	// pub is the published, immutable directory for lock-free cross-shard
	// readers. Swapped copy-on-write under mu whenever the shard's key set
	// changes (new lineage, eviction, fault-in) — never on ordinary
	// writes, which only swap the touched lineage's head.
	pub atomic.Pointer[pubIndex]

	// versions counts believed (live) versions, records all records
	// including superseded ones. Atomics so Stats sums them without the
	// historical all-shard lock.
	versions atomic.Int64
	records  atomic.Int64

	// bytes estimates the resident size of this shard's records (see
	// approxFactBytes), maintained at every site that adds or removes
	// records. The residency budget (EvictToBudget) compares the summed
	// estimate against its configured byte target.
	bytes atomic.Int64
}

// pubIndex is a shard's published directory: attribute → resident
// lineages and attribute → cold keys (both unordered; a scan scope's
// sorted candidate order is built once per version of the directories
// and dropped at eviction — see candOrder), the resident count, and the
// evicted count.
// A pubIndex and the slices it holds are immutable once published —
// inserts append beyond every published length and swap a fresh index.
// The cold keys (evicted keys) over-approximate: they include every
// non-resident key whose newest frame holds records, plus possibly stale
// marks for keys a write made resident again, which scans drop and
// rebuilds clear.
type pubIndex struct {
	byAttr  map[string][]*lineage
	cold    map[string][]element.FactKey
	n       int
	evicted int
}

// emptyPub is the directory of a freshly created shard.
var emptyPub = &pubIndex{byAttr: map[string][]*lineage{}}

// publish stores a fresh directory over the given resident lineages and
// cold keys, counting from the shard's maps. Callers hold sh.mu.
func (sh *shard) publish(byAttr map[string][]*lineage, cold map[string][]element.FactKey) {
	sh.pub.Store(&pubIndex{byAttr: byAttr, cold: cold, n: len(sh.byKey), evicted: len(sh.evicted)})
}

// lineage returns the shard's lineage for key, creating (and publishing)
// it when create is set. Callers hold the shard's write lock; callers
// holding only the read lock must pass create=false.
func (sh *shard) lineage(key element.FactKey, create bool) *lineage {
	l := sh.byKey[key]
	if l == nil && create {
		l = &lineage{key: key}
		l.head.Store(emptyHead)
		sh.byKey[key] = l
		sh.publishInsert(l)
	}
	return l
}

// get probes the shard's key map under the read lock — the only lock a
// point read takes, released before the head is walked.
func (sh *shard) get(key element.FactKey) *lineage {
	sh.mu.RLock()
	l := sh.byKey[key]
	sh.mu.RUnlock()
	return l
}

// publishInsert adds a new lineage to the published directory: the outer
// map is copied (O(#attributes)), the touched attribute's slice is
// extended by shared-backing append (readers of older indexes only ever
// touch their own published length). The cold keys are shared as they
// are, stale marks included: the write path pays nothing for them.
// Callers hold sh.mu.
func (sh *shard) publishInsert(l *lineage) {
	old := sh.pub.Load()
	nm := make(map[string][]*lineage, len(old.byAttr)+1)
	for a, ls := range old.byAttr {
		nm[a] = ls
	}
	nm[l.key.Attribute] = append(old.byAttr[l.key.Attribute], l)
	sh.publish(nm, old.cold)
}

// publishRebuild re-derives the published directory from byKey after
// evictions (or recovery's cold marks), adding the given distinct keys
// to the cold keys and clearing stale marks — a re-added key keeps
// exactly one. Callers hold sh.mu.
func (sh *shard) publishRebuild(cold []element.FactKey) {
	nm := make(map[string][]*lineage, len(sh.byKey))
	for key, l := range sh.byKey {
		nm[key.Attribute] = append(nm[key.Attribute], l)
	}
	old := sh.pub.Load().cold
	var added map[element.FactKey]bool
	if len(old) > 0 {
		added = make(map[element.FactKey]bool, len(cold))
		for _, key := range cold {
			added[key] = true
		}
	}
	nc := make(map[string][]element.FactKey, len(old)+1)
	for _, keys := range old {
		for _, key := range keys {
			if sh.byKey[key] == nil && !added[key] {
				nc[key.Attribute] = append(nc[key.Attribute], key)
			}
		}
	}
	for _, key := range cold {
		if sh.byKey[key] == nil {
			nc[key.Attribute] = append(nc[key.Attribute], key)
		}
	}
	sh.publish(nm, nc)
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardIndex hashes the lineage key `entity#attribute` with FNV-1a and
// maps it onto the shard array. Hashing the two strings with the '#'
// separator inline avoids allocating the joined key on every operation.
func shardIndex(entity, attr string, mask uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= fnvPrime64
	}
	h ^= '#'
	h *= fnvPrime64
	for i := 0; i < len(attr); i++ {
		h ^= uint64(attr[i])
		h *= fnvPrime64
	}
	return h & mask
}

// shardFor returns the shard owning the (entity, attribute) lineage.
func (s *Store) shardFor(entity, attr string) *shard {
	return s.shards[shardIndex(entity, attr, s.shardMask)]
}

// ShardIndex reports which shard owns the (entity, attribute) lineage.
// Exported so bulk loaders (the segment backend's parallel cold start)
// can partition LoadLineage calls by shard: two keys with different
// ShardIndex values never contend on a shard lock, so a disjoint
// partition loads lock-free in parallel.
func (s *Store) ShardIndex(entity, attr string) int {
	return int(shardIndex(entity, attr, s.shardMask))
}

// defaultShardCount scales the shard array with the machine: the next
// power of two at or above 4×GOMAXPROCS, floored at 8 so small machines
// still spread independent lineages, capped at 256 to bound the cost of
// cross-shard scans.
func defaultShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	switch {
	case n < 8:
		n = 8
	case n > 256:
		n = 256
	}
	return nextPowerOfTwo(n)
}

// nextPowerOfTwo rounds n up to the nearest power of two (minimum 1).
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
