// Package cql implements a CQL-style continuous query layer (Arasu, Babu,
// Widom [3]): stream-to-relation operators backed by the window library,
// incremental relation-to-relation operators (grouped aggregation and
// operator chains), and relation-to-stream operators (IStream, DStream,
// RStream).
//
// This is the DSMS substrate of the paper's §2: "the core of virtually all
// Data Stream Processing Systems". The explicit-state engine
// (internal/core) reuses it for the stream processing component of
// Figure 1, and the benchmarks use it as the window-based baseline the
// paper argues against.
//
// Relations are time-varying multisets of tuples; operators exchange
// Deltas (inserted and deleted tuples) so downstream work is proportional
// to change, not to relation size.
package cql

import (
	"sort"

	"repro/internal/element"
	"repro/internal/temporal"
)

// Delta is an incremental change to a relation at one instant.
type Delta struct {
	// At is the application time of the change (typically a window close).
	At temporal.Instant
	// Inserts are tuples added to the relation.
	Inserts []*element.Tuple
	// Deletes are tuples removed from the relation.
	Deletes []*element.Tuple
}

// IsEmpty reports whether the delta changes nothing.
func (d Delta) IsEmpty() bool { return len(d.Inserts) == 0 && len(d.Deletes) == 0 }

// Multiset is a bag of tuples with counted duplicates, the instantaneous
// relation of CQL. The zero value is not usable; call NewMultiset.
type Multiset struct {
	entries map[string]*msEntry
	size    int
}

type msEntry struct {
	tuple *element.Tuple
	count int
}

// NewMultiset returns an empty multiset.
func NewMultiset() *Multiset { return &Multiset{entries: make(map[string]*msEntry)} }

// Add inserts one occurrence of t.
func (m *Multiset) Add(t *element.Tuple) {
	k := t.Key()
	if e := m.entries[k]; e != nil {
		e.count++
	} else {
		m.entries[k] = &msEntry{tuple: t, count: 1}
	}
	m.size++
}

// Remove deletes one occurrence of t; it reports whether an occurrence
// existed.
func (m *Multiset) Remove(t *element.Tuple) bool {
	k := t.Key()
	e := m.entries[k]
	if e == nil {
		return false
	}
	e.count--
	m.size--
	if e.count == 0 {
		delete(m.entries, k)
	}
	return true
}

// Apply folds a delta into the multiset.
func (m *Multiset) Apply(d Delta) {
	for _, t := range d.Deletes {
		m.Remove(t)
	}
	for _, t := range d.Inserts {
		m.Add(t)
	}
}

// Len returns the number of tuples counting duplicates.
func (m *Multiset) Len() int { return m.size }

// Tuples returns the contents (duplicates expanded) in deterministic
// key order.
func (m *Multiset) Tuples() []*element.Tuple {
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*element.Tuple, 0, m.size)
	for _, k := range keys {
		e := m.entries[k]
		for i := 0; i < e.count; i++ {
			out = append(out, e.tuple)
		}
	}
	return out
}

// DiffToDelta computes the delta that transforms the multiset into the
// given target contents, and applies it. Stream-to-relation operators use
// this to convert successive window panes into incremental changes.
func (m *Multiset) DiffToDelta(target []*element.Tuple, at temporal.Instant) Delta {
	want := make(map[string]*msEntry, len(target))
	for _, t := range target {
		if e := want[t.Key()]; e != nil {
			e.count++
		} else {
			want[t.Key()] = &msEntry{tuple: t, count: 1}
		}
	}
	var d Delta
	d.At = at
	// Deletions: entries with higher count than target.
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		have := m.entries[k]
		wantCount := 0
		if e := want[k]; e != nil {
			wantCount = e.count
		}
		for i := wantCount; i < have.count; i++ {
			d.Deletes = append(d.Deletes, have.tuple)
		}
	}
	// Insertions: entries with lower count than target.
	wkeys := make([]string, 0, len(want))
	for k := range want {
		wkeys = append(wkeys, k)
	}
	sort.Strings(wkeys)
	for _, k := range wkeys {
		e := want[k]
		haveCount := 0
		if h := m.entries[k]; h != nil {
			haveCount = h.count
		}
		for i := haveCount; i < e.count; i++ {
			d.Inserts = append(d.Inserts, e.tuple)
		}
	}
	m.Apply(d)
	return d
}
