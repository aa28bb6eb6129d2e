package element

import (
	"fmt"
	"sync/atomic"

	"repro/internal/temporal"
)

// Fact is one timed state element: the paper's "data elements annotated
// with their time of validity" (§3). A fact states that Attribute of Entity
// had Value throughout Validity. The state store keys facts by
// (entity, attribute); successive versions of the same key have disjoint
// validity intervals.
//
// Facts are bitemporal: alongside the valid-time interval (when the fact
// held in the modeled world) every stored version carries a transaction-time
// interval [RecordedAt, SupersededAt) — when the store believed the version.
// A retroactive correction does not destroy the record it corrects; it
// closes the record's transaction-time interval and inserts replacements,
// so "what did we believe at tx about validity at vt" stays answerable.
type Fact struct {
	// SupersededAt is the transaction time at which a later write
	// superseded this version; Forever while the version is part of the
	// store's current belief.
	//
	// SupersededAt is the one fact field mutated after the fact has been
	// published to readers (the state store closes belief intervals in
	// place). Code that can race a writer — anything reading a fact still
	// owned by a store rather than a Clone — must go through the atomic
	// accessors (BeliefEnd, VisibleAt, Superseded, Recorded, Clone) and
	// writers through MarkSuperseded; direct field access is safe only on
	// clones and on facts not yet shared. The field is first in the
	// struct so its offset is 64-bit aligned even on 32-bit platforms,
	// which the sync/atomic 64-bit operations require.
	SupersededAt temporal.Instant
	// Entity identifies the subject, e.g. a visitor id or product id.
	Entity string
	// Attribute names the property, e.g. "position" or "class".
	Attribute string
	// Value is the attribute's value over the validity interval.
	Value Value
	// Validity is the half-open interval during which the fact holds.
	Validity temporal.Interval
	// RecordedAt is the transaction time at which this version entered the
	// store (the start of the record's belief interval).
	RecordedAt temporal.Instant
	// Derived marks facts materialized by the reasoner rather than
	// asserted by state management rules.
	Derived bool
	// Source names the rule (state management or reasoning) that produced
	// the fact; empty for facts asserted directly through the API.
	Source string
}

// NewFact builds an asserted fact valid over the given interval. The
// transaction-time dimension defaults to [validity.Start, Forever); the
// state store overrides it with the actual commit time on insert.
func NewFact(entity, attribute string, v Value, validity temporal.Interval) *Fact {
	return &Fact{
		Entity: entity, Attribute: attribute, Value: v, Validity: validity,
		RecordedAt: validity.Start, SupersededAt: temporal.Forever,
	}
}

// Key returns the state-store key of the fact: entity and attribute.
func (f *Fact) Key() FactKey { return FactKey{Entity: f.Entity, Attribute: f.Attribute} }

// IsCurrent reports whether the fact's validity is still open.
func (f *Fact) IsCurrent() bool { return f.Validity.IsOpen() }

// BeliefEnd atomically reads SupersededAt. It is the raw accessor behind
// VisibleAt/Superseded for facts that may be shared with a
// concurrent writer (see the SupersededAt field comment).
func (f *Fact) BeliefEnd() temporal.Instant {
	return temporal.Instant(atomic.LoadInt64((*int64)(&f.SupersededAt)))
}

// MarkSuperseded atomically closes the record's belief interval at tt.
// The state store calls it under the owning shard's write lock when a
// later write revises this version; the atomic store pairs with the
// atomic loads in BeliefEnd so lock-free snapshot readers holding older
// published heads can race the mutation safely.
func (f *Fact) MarkSuperseded(tt temporal.Instant) {
	atomic.StoreInt64((*int64)(&f.SupersededAt), int64(tt))
}

// Superseded reports whether a later write has revised this version out of
// the store's current belief.
func (f *Fact) Superseded() bool { return f.BeliefEnd() != temporal.Forever }

// VisibleAt reports whether the version was part of the store's belief at
// transaction time tt.
func (f *Fact) VisibleAt(tt temporal.Instant) bool {
	return f.RecordedAt <= tt && tt < f.BeliefEnd()
}

// Copy returns an independent value copy of the fact. The copy is built
// field by field (not by struct assignment) so the SupersededAt read is
// atomic: copying a store-owned fact may race the write that supersedes
// it. Returning a value lets scan loops reuse one scratch Fact without
// allocating per candidate.
func (f *Fact) Copy() Fact {
	return Fact{
		Entity: f.Entity, Attribute: f.Attribute, Value: f.Value,
		Validity: f.Validity, RecordedAt: f.RecordedAt,
		SupersededAt: f.BeliefEnd(),
		Derived:      f.Derived, Source: f.Source,
	}
}

// Clone returns an independent copy of the fact, with the same atomic
// SupersededAt read as Copy.
func (f *Fact) Clone() *Fact {
	c := f.Copy()
	return &c
}

// String renders the fact as attribute(entity)=value @ validity.
func (f *Fact) String() string {
	tag := ""
	if f.Derived {
		tag = " [derived]"
	}
	return fmt.Sprintf("%s(%s)=%s @ %s%s", f.Attribute, f.Entity, f.Value, f.Validity, tag)
}

// FactKey identifies a fact lineage in the state store.
type FactKey struct {
	Entity    string
	Attribute string
}

// String renders the key as attribute(entity).
func (k FactKey) String() string { return k.Attribute + "(" + k.Entity + ")" }
