package segment

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// WithWALRotateBytes sets the size threshold at which the WAL rotates
// to a fresh chain file (default state.DefaultWALRotateBytes). Smaller
// thresholds make TruncateBefore reclaim more eagerly — it only ever
// drops whole files — at the cost of more files.
func WithWALRotateBytes(n int64) Option {
	return func(d *Store) { d.walRotate = n }
}

// String names a transition as Step reports it.
func (t transition) String() string {
	return [...]string{"", "flush", "evict", "merge"}[t]
}

// Step runs one maintenance transition, exactly as the loop would, and
// reports which fired: "flush", "evict", "merge", or "" when none is
// enabled. A flush retry still backing off is waited out, not skipped.
func (d *Store) Step() string {
	for {
		d.stepMu.Lock()
		t, wait := d.step(true), time.Until(d.retryAt)
		d.stepMu.Unlock()
		if t != stepNone || wait <= 0 {
			return t.String()
		}
		time.Sleep(wait)
	}
}

// Idle fires transitions until none is enabled: every pulse so far has
// been fully acted on when it returns.
func (d *Store) Idle() {
	for d.Step() != "" {
	}
}

// keptReaders returns every segment reader the RAM store's kept cold
// resolutions reference — through the catalog each was made against,
// or through a resolved frame.
func (d *Store) keptReaders() []*reader {
	var out []*reader
	for _, res := range d.mem.ColdResolutions() {
		r := res.(*resolution)
		out = append(out, r.cat.segments...)
		for _, c := range r.refs {
			out = append(out, c.r)
		}
	}
	return out
}

// racingSource is a store's cold source that runs during inside the next
// ResolveCold, after the resolve loaded its catalog: a scan resolving
// then races that publish exactly as one racing a concurrent flush or
// merge would.
type racingSource struct {
	*Store
	during func()
}

func (s *racingSource) ResolveCold(keys []element.FactKey) state.ColdResolution {
	res := s.Store.ResolveCold(keys)
	if during := s.during; during != nil {
		s.during = nil
		during()
	}
	return res
}

// evictedKeys returns st's evicted keys sorted by (attribute, entity):
// its published cold keys less the stale marks of lineages a write made
// resident again, which a full FlushCut pass visits.
func evictedKeys(st *state.Store) []element.FactKey {
	resident := map[element.FactKey]bool{}
	st.FlushCut(temporal.Forever, temporal.MinInstant, func(key element.FactKey, _ []*element.Fact) {
		resident[key] = true
	})
	var keys []element.FactKey
	for _, key := range st.ColdKeys() {
		if !resident[key] {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(a, b element.FactKey) int {
		return cmp.Or(strings.Compare(a.Attribute, b.Attribute), strings.Compare(a.Entity, b.Entity))
	})
	return keys
}
