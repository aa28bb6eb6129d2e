package state

// The cached candidate order is unobservable: every scan shape read
// through a warm (possibly reused) order equals the same read taken
// right after the orders are dropped, across new keys, writes,
// corrections, evictions, fault-ins and stale cold marks — and no
// cached order keeps an evicted lineage reachable.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// memCold is a ColdSource over frames flushed from the store itself:
// each key's record set at its latest flush. It prunes nothing, so the
// gather's decoded-head re-test does the pruning.
type memCold struct {
	mu     sync.RWMutex
	frames map[element.FactKey][]element.Fact
}

// flush writes every lineage's records believed at a fresh pin to the
// frames and returns the pin: the durable cut eviction may evict up to.
func (m *memCold) flush(s *Store) temporal.Instant {
	tt := s.Snapshot().At()
	s.FlushCut(tt, temporal.MinInstant, func(key element.FactKey, records []*element.Fact) {
		fs := make([]element.Fact, len(records))
		for i, f := range records {
			fs[i] = *f
		}
		m.mu.Lock()
		m.frames[key] = fs
		m.mu.Unlock()
	})
	return tt
}

// memKeys is memCold's resolution: the keys themselves, looked up in
// the frames at every filter, so it never goes stale.
type memKeys []element.FactKey

func (memKeys) Current() bool { return true }

func (m *memCold) ResolveCold(keys []element.FactKey) ColdResolution { return memKeys(keys) }

func (m *memCold) ColdFrames(dst []ColdLineage, res ColdResolution, _ ScanShape, _ ValueBounds) []ColdLineage {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, key := range res.(memKeys) {
		if _, ok := m.frames[key]; ok {
			dst = append(dst, ColdLineage{Key: key, Src: m})
		}
	}
	return dst
}

func (m *memCold) LoadFrame(key element.FactKey, _ int64, buf *ColdBuf) ([]*element.Fact, error) {
	m.mu.RLock()
	buf.Facts = append(buf.Facts[:0], m.frames[key]...)
	m.mu.RUnlock()
	buf.Records = buf.Records[:0]
	for i := range buf.Facts {
		buf.Records = append(buf.Records, &buf.Facts[i])
	}
	return buf.Records, nil
}

// newColdStore returns a tracked store backed by a fresh memCold.
func newColdStore() (*Store, *memCold) {
	s := NewStoreWithShards(4)
	m := &memCold{frames: map[element.FactKey][]element.Fact{}}
	s.SetColdSource(m)
	s.SetAccessTracking(true)
	return s, m
}

// orderScopes are the scan scopes the tests alternate: two attributes
// and all attributes.
var orderScopes = []string{"temp", "load", ""}

// scopeOpts returns the read options of one scope.
func scopeOpts(scope string, extra ...ReadOpt) []ReadOpt {
	if scope == "" {
		return extra
	}
	return append([]ReadOpt{WithAttribute(scope)}, extra...)
}

// scanRead is one read of every shape the gather serves, in one scope:
// List live and pinned, and ScanPartitioned bounded and unbounded at
// parallelism 1 and 4, live and at a pinned SnapshotAt.
type scanRead struct {
	Lists [][]*element.Fact
	Scans [][]*element.Fact
	Stats []ScanStats
}

func readScope(s *Store, scope string, pin temporal.Instant) scanRead {
	var r scanRead
	r.Lists = append(r.Lists,
		s.List(scopeOpts(scope)...),
		s.List(scopeOpts(scope, AllVersions())...),
		s.SnapshotAt(pin).List(scopeOpts(scope)...))
	live := s.Snapshot()
	for _, sn := range []*Snapshot{live, s.SnapshotAt(pin)} {
		for _, par := range []int{1, 4} {
			for _, b := range []ValueBounds{{}, {Min: 50, HasMin: true}} {
				out, st := sn.ScanPartitioned(ScanSpec{Opts: scopeOpts(scope), Parallelism: par, Bounds: b})
				r.Scans = append(r.Scans, out)
				r.Stats = append(r.Stats, st)
			}
		}
	}
	return r
}

// TestCandidateOrderUnobservable runs random interleavings of directory
// changes and ordinary writes; after each step every read through the
// cached orders must equal the read right after dropping them.
func TestCandidateOrderUnobservable(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkOrderUnobservable(t, seed, 150)
		})
	}
}

func checkOrderUnobservable(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s, m := newColdStore()
	attrs := orderScopes[:2]
	var keys []element.FactKey
	evicted := func() []element.FactKey { return s.EvictedKeys() }
	put := func(key element.FactKey) {
		t.Helper()
		if err := s.Put(key.Entity, key.Attribute, element.Float(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}
	newKey := func() {
		key := element.FactKey{Entity: fmt.Sprintf("e%04d", rng.Intn(10000)), Attribute: attrs[rng.Intn(2)]}
		keys = append(keys, key)
		put(key)
	}
	for i := 0; i < 40; i++ {
		newKey()
	}
	pin := s.Snapshot().At()
	evictTo := func(budget int64) {
		t.Helper()
		s.EvictToBudget(budget, m.flush(s))
		if gone := s.cachedNonResident(); len(gone) > 0 {
			t.Fatalf("after eviction the cached orders hold %d non-resident lineages", len(gone))
		}
	}
	hits := 0
	for step := 0; step < steps; step++ {
		var what string
		switch k := rng.Intn(10); {
		case k < 2:
			what = "new key"
			newKey()
		case k < 5:
			what = "write"
			put(keys[rng.Intn(len(keys))])
		case k < 6:
			what = "correction"
			key := keys[rng.Intn(len(keys))]
			from := temporal.Instant(rng.Intn(int(s.clock.now()) + 1))
			if err := s.Put(key.Entity, key.Attribute, element.Float(100+rng.Float64()),
				WithValidTime(from), WithEndValidTime(from+3)); err != nil {
				t.Fatal(err)
			}
		case k < 7:
			what = "evict to 0"
			evictTo(0)
		case k < 8:
			what = "evict to 1/8"
			evictTo(s.ResidentBytes() / 8)
		default:
			// A write to an evicted key faults it in and leaves its cold
			// mark stale until the next rebuild.
			what = "fault-in"
			if ev := evicted(); len(ev) > 0 {
				put(ev[rng.Intn(len(ev))])
			} else {
				put(keys[rng.Intn(len(keys))])
			}
		}
		if step == steps/3 {
			pin = s.Snapshot().At()
		}
		// The fresh reads publish the orders the next step's cached
		// reads reuse, unless that step changes a directory.
		cached := make([]scanRead, len(orderScopes))
		for i, scope := range orderScopes {
			if s.cachedOrderCurrent(scope) {
				hits++
			}
			cached[i] = readScope(s, scope, pin)
		}
		s.dropCachedOrders()
		for i, scope := range orderScopes {
			if fresh := readScope(s, scope, pin); !reflect.DeepEqual(cached[i], fresh) {
				t.Fatalf("step %d (%s), scope %q: a read through the cached order differs from a fresh one", step, what, scope)
			}
		}
		if gone := s.cachedNonResident(); len(gone) > 0 {
			t.Fatalf("step %d (%s): the cached orders hold %d non-resident lineages", step, what, len(gone))
		}
	}
	if hits == 0 {
		t.Fatal("no read reused a cached order: the differential compared fresh orders only")
	}
	if len(s.ColdKeys()) == 0 {
		t.Fatal("no cold keys: the interleaving never exercised the cold half")
	}
}

// TestCandidateOrderScansUnderChurn races scanners against new
// lineages (publishInsert), writes, evictions and fault-ins. Every scan
// must come back in gather order with no key twice, and once the churn
// stops the cached reads must equal fresh ones.
func TestCandidateOrderScansUnderChurn(t *testing.T) {
	s, m := newColdStore()
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("e%04d", i), orderScopes[i%2], element.Float(float64(i%100))); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
		stop.Store(true)
	}
	wg.Add(1)
	go func() { // writer: new keys, rewrites, fault-ins
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 200; !stop.Load() && i < 4000; i++ {
			ent := fmt.Sprintf("e%04d", i)
			if i%3 != 0 {
				ent = fmt.Sprintf("e%04d", rng.Intn(i))
			}
			if err := s.Put(ent, orderScopes[rng.Intn(2)], element.Float(rng.Float64()*100)); err != nil {
				fail(err)
				return
			}
		}
		stop.Store(true)
	}()
	wg.Add(1)
	go func() { // evictor, the only one: nothing else removes a lineage
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// A scan that loaded a directory from before the last
			// eviction must not have published its order after the drop.
			if gone := s.cachedNonResident(); len(gone) > 0 {
				fail(fmt.Errorf("after eviction %d the cached orders hold %d non-resident lineages", i, len(gone)))
				return
			}
			budget := s.ResidentBytes() / 8
			if i%2 == 0 {
				budget = 0
			}
			s.EvictToBudget(budget, m.flush(s))
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // scanners
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				scope := orderScopes[(i+w)%len(orderScopes)]
				out, st := s.Snapshot().ScanPartitioned(ScanSpec{Opts: scopeOpts(scope), Parallelism: 1 + 3*w})
				if st.Err != nil {
					fail(st.Err)
					return
				}
				if !slices.IsSortedFunc(out, func(a, b *element.Fact) int { return compareKeys(a.Key(), b.Key()) }) {
					fail(fmt.Errorf("scope %q: scan out of gather order", scope))
					return
				}
				for j := 1; j < len(out); j++ {
					if out[j].Key() == out[j-1].Key() {
						fail(fmt.Errorf("scope %q: %s scanned twice", scope, out[j].Key()))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pin := s.Snapshot().At()
	for _, scope := range orderScopes {
		cached := readScope(s, scope, pin)
		s.dropCachedOrders()
		if fresh := readScope(s, scope, pin); !reflect.DeepEqual(cached, fresh) {
			t.Fatalf("scope %q: after the churn a cached read differs from a fresh one", scope)
		}
	}
	s.EvictToBudget(0, m.flush(s))
	if gone := s.cachedNonResident(); len(gone) > 0 {
		t.Fatalf("after eviction the cached orders hold %d non-resident lineages", len(gone))
	}
}
