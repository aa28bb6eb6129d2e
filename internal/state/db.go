// Bitemporal StateDB surface: functional read/write options in the
// XTDB/Snodgrass style. *Store implements StateDB directly.
//
// Reads compose AsOfValidTime (which version held in the modeled world)
// with AsOfTransactionTime (which version the store believed at the time):
//
//	st.Find("ann", "position")                                  // current belief, open version
//	st.Find("ann", "position", AsOfValidTime(60))               // current belief about t=60
//	st.Find("ann", "position", AsOfValidTime(60),
//	        AsOfTransactionTime(30))                            // what we believed at 30 about 60
//
// Writes default to replace semantics from the store's transaction clock
// onward (there is no wall clock: each default write commits one tick
// past the clock's high-water mark) and accept explicit valid intervals
// for retroactive corrections, which supersede — never destroy — the
// record versions they revise:
//
//	st.Put("ann", "position", v)                                // [clock, Forever)
//	st.Put("ann", "position", v, WithValidTime(10))             // retroactive, open end
//	st.Put("ann", "position", v, WithValidTime(10),
//	       WithEndValidTime(20))                                // bounded correction
//	st.Delete("ann", "position", WithValidTime(10))             // retroactive retraction

package state

import (
	"repro/internal/element"
	"repro/internal/temporal"
)

// StateDB is the bitemporal database interface of §3.3 ("implement the
// state component as a temporal database"): point reads, scans, and
// writes, each parameterized by functional temporal options. *Store is
// the in-memory implementation and *segment.Store the durable one; the
// interface is the seam for future backends (SQL).
type StateDB interface {
	// Find returns the version of (entity, attr) selected by the read
	// options: by default the open version in the store's current belief.
	Find(entity, attr string, opts ...ReadOpt) (*element.Fact, bool)
	// List returns one selected version per (entity, attribute) key — or
	// every version with AllVersions — sorted by (attribute, entity,
	// validity start).
	List(opts ...ReadOpt) []*element.Fact
	// Put writes a value with replace semantics over the write options'
	// valid interval. Overlapped portions of existing versions are
	// superseded at the write's transaction time.
	Put(entity, attr string, v element.Value, opts ...WriteOpt) error
	// Delete removes any value over the write options' valid interval,
	// superseding the overlapped versions. Deleting where nothing holds is
	// a no-op.
	Delete(entity, attr string, opts ...WriteOpt) error
	// History returns the version history of one key: by default the
	// current-belief versions in validity order; under AsOfTransactionTime
	// the versions believed then; with AllVersions every record ever
	// written, including superseded ones, in recording order.
	History(entity, attr string, opts ...ReadOpt) []*element.Fact
}

// ReadOpt configures a temporal read.
type ReadOpt func(*readCfg)

// readCfg is the resolved form of a ReadOpt list. Its temporal selectors
// are value+flag pairs (not pointers) so a cfg can live on the stack of a
// hot read without forcing the instants to escape.
type readCfg struct {
	validAt     temporal.Instant
	hasValidAt  bool
	validDuring temporal.Interval
	hasDuring   bool
	txAt        temporal.Instant
	hasTxAt     bool
	attr        string
	allVersions bool
}

func newReadCfg(opts []ReadOpt) readCfg {
	var cfg readCfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// ReadSpec is the pre-resolved, allocation-free form of a point-read
// option list: the engine's per-element reads build one on the stack
// instead of materializing ReadOpt closures. FindValue accepts it
// directly; the zero ReadSpec reads the open version in the current
// belief, exactly like Find with no options.
type ReadSpec struct {
	// ValidAt selects by valid time when HasValidAt is set.
	ValidAt    temporal.Instant
	HasValidAt bool
	// TxAt pins the belief (transaction time) when HasTxAt is set.
	TxAt    temporal.Instant
	HasTxAt bool
}

// cfg converts the spec to the internal read configuration.
func (r ReadSpec) cfg() readCfg {
	return readCfg{
		validAt: r.ValidAt, hasValidAt: r.HasValidAt,
		txAt: r.TxAt, hasTxAt: r.HasTxAt,
	}
}

// ScanShape is the fully resolved form of a List/scan option list: every
// temporal selector plus the attribute scope and version cardinality.
// Backends layered over the store use it to reason about a scan's shape
// — e.g. the segment store prunes durable frames whose bitemporal
// envelope cannot overlap the shape — without re-deriving option
// semantics.
type ScanShape struct {
	// ValidAt selects by valid time when HasValidAt is set.
	ValidAt    temporal.Instant
	HasValidAt bool
	// During restricts to versions overlapping the interval when
	// HasDuring is set (DuringValidTime).
	During    temporal.Interval
	HasDuring bool
	// TxAt pins the belief when HasTxAt is set.
	TxAt    temporal.Instant
	HasTxAt bool
	// Attr scopes the scan to one attribute when non-empty.
	Attr string
	// AllVersions reports every matching version instead of one per key.
	AllVersions bool
}

// SelectsOpen reports whether the shape selects, from each lineage, at
// most the open version of the belief at its pin: no valid-time
// selector, no DURING, one version per key. Read without a pin, or
// pinned at or after everything that touched a lineage, it selects
// exactly the lineage's open version, so value bounds can prune by that
// version alone.
func (s ScanShape) SelectsOpen() bool {
	return !s.HasValidAt && !s.HasDuring && !s.AllVersions
}

// AsOfValidTime selects the version valid at t in the modeled world.
// Without it, point reads return the open ("until further notice") version.
func AsOfValidTime(t temporal.Instant) ReadOpt {
	return func(c *readCfg) { c.validAt, c.hasValidAt = t, true }
}

// AsOfTransactionTime selects the versions the store believed at
// transaction time tt, making retroactive corrections recorded after tt
// invisible. Without it, reads see the current belief.
func AsOfTransactionTime(tt temporal.Instant) ReadOpt {
	return func(c *readCfg) { c.txAt, c.hasTxAt = tt, true }
}

// DuringValidTime restricts List to versions whose validity overlaps
// [from, to). Implies AllVersions semantics over the overlap range.
func DuringValidTime(from, to temporal.Instant) ReadOpt {
	iv := temporal.NewInterval(from, to)
	return func(c *readCfg) {
		c.validDuring, c.hasDuring = iv, true
		c.allVersions = true
	}
}

// WithAttribute scopes List to one attribute.
func WithAttribute(attr string) ReadOpt {
	return func(c *readCfg) { c.attr = attr }
}

// AllVersions makes List return every version (not one per key) and
// History return superseded records alongside believed ones.
func AllVersions() ReadOpt {
	return func(c *readCfg) { c.allVersions = true }
}

// WriteOpt configures a temporal write.
type WriteOpt func(*writeCfg)

type writeCfg struct {
	validFrom *temporal.Instant
	validTo   *temporal.Instant
	tx        *temporal.Instant
	source    string
}

func newWriteCfg(opts []WriteOpt) writeCfg {
	var cfg writeCfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// fill copies the resolved options into a write request.
func (c writeCfg) fill(r *writeReq) {
	if c.validFrom != nil {
		r.validFrom, r.hasValidFrom = *c.validFrom, true
	}
	if c.validTo != nil {
		r.validTo, r.hasValidTo = *c.validTo, true
	}
	if c.tx != nil {
		r.tx, r.hasTx = *c.tx, true
	}
	r.source = c.source
}

// WithValidTime sets the start of the write's valid interval. A start
// earlier than existing versions makes the write a retroactive correction.
// Defaults to the write's transaction time.
func WithValidTime(t temporal.Instant) WriteOpt {
	return func(c *writeCfg) { c.validFrom = &t }
}

// WithEndValidTime bounds the write's valid interval: the value holds over
// [WithValidTime, end) instead of [WithValidTime, Forever).
func WithEndValidTime(end temporal.Instant) WriteOpt {
	return func(c *writeCfg) { c.validTo = &end }
}

// WithTransactionTime pins the write's transaction time instead of the
// store's transaction clock (one tick past the high-water mark of times
// seen so far). Transaction times should be non-decreasing; the engine
// uses stream timestamps, which its ordering guarantees. Out-of-order
// explicit times are accepted but drop the lineage to linear-scan belief
// reads.
func WithTransactionTime(tt temporal.Instant) WriteOpt {
	return func(c *writeCfg) { c.tx = &tt }
}

// WithSource labels the written version with the producing rule's name.
func WithSource(source string) WriteOpt {
	return func(c *writeCfg) { c.source = source }
}
