// Package subscribe implements live subscription fan-out over the
// engine's watermark batches: the serving half of the paper's "queryable
// state" (§3.2), pushed instead of polled. Clients register a Filter — a
// stream/entity/attribute selection, or a continuous SELECT re-evaluated
// against each watermark snapshot — and receive one Delivery per
// watermark whose batch touched their subscription.
//
// The Broker taps the engine with core.Engine.OnWatermark: at each
// watermark boundary the engine hands it the pinned state snapshot plus
// the batch's change events and emitted elements. The hook performs a
// non-blocking hand-off to the broker goroutine, which matches deltas
// against a filter index and fans out through per-client bounded send
// queues that never block:
//
//   - A slow consumer's queue overflows into a "lost" mark. Further
//     deltas for it are dropped (never buffered unboundedly, never
//     stalling ingest or other subscribers).
//   - When the consumer drains its queue, it receives exactly one Resync
//     delivery: a snapshot-pinned catch-up of its filtered state at an
//     explicit transaction-time cut, equal to reading
//     Store.SnapshotAt(cut) directly. Deliveries then resume from the
//     next watermark.
//
// Delivery guarantees are therefore at-least-once per watermark with
// explicit resync: a live subscriber sees every watermark that touched
// its filter; a lagging subscriber sees a prefix, one Resync at a cut at
// or after the gap, and every watermark after the cut.
package subscribe

import (
	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
)

// Filter selects which deltas a subscription receives. The zero Filter
// subscribes to everything (all changes and all emitted elements).
//
// Setting Entity or Attr implies Changes; setting Stream implies Emitted.
// Query, when non-empty, is a continuous SELECT in the temporal query
// dialect (internal/query), re-evaluated against each watermark snapshot
// with now() anchored at the watermark; its result is pushed only when it
// differs from the previously delivered one.
type Filter struct {
	// Entity restricts change deliveries to one entity ("" = any).
	Entity string
	// Attr restricts change deliveries to one attribute ("" = any).
	Attr string
	// Stream restricts emitted-element deliveries to one stream ("" = any).
	Stream string
	// Changes subscribes to state change events (asserted/terminated).
	Changes bool
	// Emitted subscribes to EMIT-derived elements.
	Emitted bool
	// Query is an optional continuous SELECT re-run per watermark.
	Query string
}

// normalize applies the implication rules and the match-all default.
func (f Filter) normalize() Filter {
	if f.Entity != "" || f.Attr != "" {
		f.Changes = true
	}
	if f.Stream != "" {
		f.Emitted = true
	}
	if !f.Changes && !f.Emitted && f.Query == "" {
		f.Changes, f.Emitted = true, true
	}
	return f
}

// Kind classifies a Delivery.
type Kind int

// Delivery kinds.
const (
	// Deltas carries one watermark's filtered changes/emissions/result.
	Deltas Kind = iota
	// Resync marks a gap: the subscriber overflowed (or resumed from a
	// stale cursor) and receives a snapshot-pinned catch-up instead of
	// the missed deltas.
	Resync
	// Notice carries an operational event — the durable layer entering
	// or leaving degraded mode — rather than data. Note describes it.
	Notice
)

// String names the delivery kind.
func (k Kind) String() string {
	switch k {
	case Resync:
		return "resync"
	case Notice:
		return "notice"
	}
	return "deltas"
}

// Delivery is one pushed unit: the filtered view of one watermark batch
// (Kind Deltas), or a catch-up after a gap (Kind Resync). All slices are
// owned by the subscriber; the broker never reuses them.
type Delivery struct {
	// Kind distinguishes per-watermark deltas from a resync catch-up.
	Kind Kind
	// Watermark is the instant of the batch that produced the delivery.
	Watermark temporal.Instant
	// Changes are the batch's state transitions passing the filter
	// (Deltas only), in commit order.
	Changes []state.Change
	// Emitted are the batch's EMIT-derived elements passing the filter
	// (Deltas only), in emission order.
	Emitted []*element.Element
	// Result is the continuous query's result when it changed (or, on
	// Resync, the fresh result at the cut); nil otherwise.
	Result *query.Result
	// Cut is the transaction-time instant of the Resync catch-up: State
	// equals reading Store.SnapshotAt(Cut) with the subscription filter.
	Cut temporal.Instant
	// State is the Resync catch-up: the filtered believed state at Cut.
	State []*element.Fact
	// Note is the Notice payload: a human-readable description of the
	// operational event ("degraded: <cause>" or "durability resumed").
	Note string
}

// catchUp reads the filtered believed state through the pinned snapshot
// handle — the exact facts Store.SnapshotAt(snap.At()) would return for
// the same selection, which the resync contract promises.
func catchUp(snap *state.Snapshot, f Filter) []*element.Fact {
	var opts []state.ReadOpt
	if f.Attr != "" {
		opts = append(opts, state.WithAttribute(f.Attr))
	}
	facts := snap.List(opts...)
	if f.Entity == "" {
		return facts
	}
	kept := facts[:0]
	for _, fc := range facts {
		if fc.Entity == f.Entity {
			kept = append(kept, fc)
		}
	}
	return kept
}
