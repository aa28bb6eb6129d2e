package state

import (
	"slices"

	"repro/internal/element"
)

// dropCachedOrders forgets the store's cached candidate orders, so the
// next scan of every scope collects and sorts the directories afresh:
// the reference a cached read must equal.
func (s *Store) dropCachedOrders() { s.dropOrders() }

// cachedOrderCurrent reports whether scope's cached order matches every
// shard's published directory, so its next scan reuses it.
func (s *Store) cachedOrderCurrent(scope string) bool {
	o := s.orders.Load().scopes[scope]
	return o != nil && o.current(s.shards)
}

// cachedNonResident returns the keys of lineages that a cached order,
// or a directory it holds, keeps reachable although the lineage is no
// longer the shard's resident one — what eviction must never leave.
func (s *Store) cachedNonResident() map[element.FactKey]bool {
	out := map[element.FactKey]bool{}
	check := func(l *lineage) {
		if s.shardFor(l.key.Entity, l.key.Attribute).get(l.key) != l {
			out[l.key] = true
		}
	}
	for _, o := range s.orders.Load().scopes {
		for _, l := range o.lins {
			check(l)
		}
		for _, pub := range o.pubs {
			for _, ls := range pub.byAttr {
				for _, l := range ls {
					check(l)
				}
			}
		}
	}
	return out
}

// evictedKeys returns the evicted key set sorted by (attribute, entity).
func (s *Store) evictedKeys() []element.FactKey {
	var keys []element.FactKey
	for _, sh := range s.shards {
		sh.mu.RLock()
		for key := range sh.evicted {
			keys = append(keys, key)
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}
