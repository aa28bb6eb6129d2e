// Package statestream is a stream processing library with explicit state
// management, reproducing the model of Margara, Dell'Aglio, and Bernstein,
// "Break the Windows: Explicit State Management for Stream Processing
// Systems" (EDBT 2017).
//
// The package re-exports the part of the implementation under internal/
// that the examples and the README use. The paper's Figure 1
// architecture maps onto it as follows:
//
//   - Input streams are timestamped Elements fed to an Engine in
//     timestamp order (Engine.Process / Engine.Run).
//   - State management rules, written in a textual rule language
//     (Engine.DeployRules), turn input elements into updates of the state
//     repository: facts annotated with their time of validity.
//   - Stream processing rules are Processors (Engine.DeployProcessor):
//     CQL-style continuous queries over windows, optionally preceded by a
//     state-condition Gate and state Enrichment.
//   - The state repository is a bitemporal database (§3.3's "temporal
//     database"): every fact version carries a valid-time interval and a
//     transaction-time interval. It is queryable on demand (Engine.Query,
//     Engine.Prepare) with a temporal SELECT dialect — CURRENT, ASOF t,
//     DURING a TO b, HISTORY — each composable with SYSTEM TIME ASOF tt to
//     query a past belief. The option-based read/write surface (Engine.DB,
//     or a standalone Store) supports retroactive corrections that
//     supersede, never destroy, history. Store.Replace is the
//     stream-append write that REPLACE rules perform: it rejects
//     out-of-order instants instead.
//   - A Reasoner (Engine.EnableReasoning, or NewReasoner over a Store)
//     materializes implicit facts from ontologies and Horn rules,
//     augmenting both queries and gates.
//   - WithDurableDir makes the state repository durable: committed
//     lineage heads flush into append-only, checksummed segment files, a
//     WAL covers the tail, and constructing an engine on the same
//     directory recovers the exact bitemporal state (Engine.Close
//     flushes the final cut).
//   - NewBroker pushes each watermark's state changes and emitted
//     elements to subscribers.
//
// Minimal example — the paper's building-security use case:
//
//	engine := statestream.New(statestream.StateFirst) // or New(WithPolicy(...), WithDurableDir(dir))
//	engine.DeployRules(`
//	    RULE position ON RoomEntry AS r
//	    THEN REPLACE position(r.visitor) = r.room`)
//	engine.Run(msgs) // timestamp-ordered elements + watermarks
//	res, _ := engine.Query("SELECT entity, value FROM position")
//
//	// Retroactive correction + audit query:
//	engine.DB().Put("ann", "position", statestream.String("vault"),
//	    statestream.WithValidTime(10), statestream.WithEndValidTime(20))
//	res, _ = engine.Query("SELECT entity, value FROM position ASOF 15 SYSTEM TIME ASOF 12")
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and the bitemporal API map.
package statestream

import (
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/stream"
	"repro/internal/subscribe"
	"repro/internal/temporal"
	"repro/internal/window"
)

// Core engine types (Figure 1).
type (
	// Engine is the explicit-state stream processing system.
	Engine = core.Engine
	// Processor is one deployed stream processing pipeline.
	Processor = core.Processor
	// EnrichSpec adds a state-derived field to stream elements.
	EnrichSpec = core.EnrichSpec
	// Policy fixes the state/stream interaction semantics (§3.3).
	Policy = core.Policy
	// Option configures an Engine at construction (Policy values are
	// Options themselves, so New(StateFirst) still works).
	Option = core.Option
)

// Interaction policies (see Policy).
const (
	// StateFirst applies a tick's rules before its processors run.
	StateFirst Policy = core.StateFirst
	// StreamFirst runs a tick's processors against the prior state.
	StreamFirst Policy = core.StreamFirst
	// Snapshot runs processors against a view taken at the last watermark.
	Snapshot Policy = core.Snapshot
)

// New returns an engine configured by the given options; with none it
// uses the StateFirst policy. A bare Policy is accepted as an option.
func New(opts ...Option) *Engine { return core.New(opts...) }

// WithPolicy selects the state/stream interaction policy.
func WithPolicy(p Policy) Option { return core.WithPolicy(p) }

// WithDurableDir persists the engine's state repository in a durable
// segment directory: committed lineage heads flush as immutable,
// checksummed segment files as the watermark advances, a WAL covers the
// tail since the last flush, and constructing an engine on an existing
// directory recovers the exact bitemporal state — without replaying the
// full history. Call Engine.Close to flush the final cut; crashing
// without Close loses nothing but that flush. See DESIGN.md
// "Durability".
func WithDurableDir(path string) Option { return core.WithDurableDir(path) }

// WithResidencyBudget caps the RAM working set of a durable engine at n
// estimated bytes. As the watermark advances, fully-flushed cold
// lineages are evicted least-recently-used; reads and scans serve them
// from segment frames with identical results, and writes to evicted
// keys fault their history back in. Zero (the default) keeps everything
// resident. See DESIGN.md "Larger-than-RAM state".
func WithResidencyBudget(n int64) Option { return core.WithResidencyBudget(n) }

// Data model.
type (
	// Value is a dynamically typed scalar.
	Value = element.Value
	// Kind is a Value's dynamic type.
	Kind = element.Kind
	// Field is one named, typed schema attribute.
	Field = element.Field
	// Schema describes the tuples of one stream.
	Schema = element.Schema
	// Tuple is one row conforming to a schema.
	Tuple = element.Tuple
	// Element is one stream element: tuple + stream name + timestamp.
	Element = element.Element
	// Instant is a point on the application time line (ns since epoch).
	Instant = temporal.Instant
)

// Value kinds.
const (
	// KindNull is the absent value's kind.
	KindNull Kind = element.KindNull
	// KindBool is a boolean.
	KindBool Kind = element.KindBool
	// KindInt is a 64-bit integer.
	KindInt Kind = element.KindInt
	// KindFloat is a 64-bit float.
	KindFloat Kind = element.KindFloat
	// KindString is a string.
	KindString Kind = element.KindString
	// KindTime is an Instant.
	KindTime Kind = element.KindTime
)

// Int wraps an integer value.
func Int(i int64) Value { return element.Int(i) }

// Float wraps a float value.
func Float(f float64) Value { return element.Float(f) }

// String wraps a string value.
func String(s string) Value { return element.String(s) }

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return element.NewSchema(fields...) }

// NewTuple pairs a schema with values.
func NewTuple(schema *Schema, values ...Value) *Tuple { return element.NewTuple(schema, values...) }

// NewElement builds a stream element.
func NewElement(stream string, ts Instant, tuple *Tuple) *Element {
	return element.New(stream, ts, tuple)
}

// FromMillis converts epoch milliseconds to an Instant.
func FromMillis(ms int64) Instant { return temporal.FromMillis(ms) }

// Message is one unit of stream input: an element or a watermark.
type Message = stream.Message

// ElementMsg wraps an element in a message.
func ElementMsg(el *Element) Message { return stream.ElementMsg(el) }

// WatermarkMsg builds a watermark message asserting no earlier elements
// will follow.
func WatermarkMsg(t Instant) Message { return stream.WatermarkMsg(t) }

// FromElements converts a timestamp-sorted batch to messages with a final
// flushing watermark.
func FromElements(els []*Element) []Message { return stream.FromElements(els) }

// WithPeriodicWatermarks interleaves watermarks every period.
func WithPeriodicWatermarks(els []*Element, period Instant) []Message {
	return stream.WithPeriodicWatermarks(els, period)
}

// MergeSorted merges timestamp-sorted streams deterministically.
func MergeSorted(inputs ...[]*Element) []*Element { return stream.MergeSorted(inputs...) }

// Windower is the incremental window evaluation interface (the window
// baselines of §2, usable inside Processors).
type Windower = window.Windower

// NewTumblingTime returns fixed consecutive time windows.
func NewTumblingTime(size Instant) Windower { return window.NewTumblingTime(size) }

// NewSlidingTime returns overlapping time windows.
func NewSlidingTime(size, slide Instant) Windower { return window.NewSlidingTime(size, slide) }

// NewSessionWindow returns gap-based per-key session windows [1].
func NewSessionWindow(gap Instant, key func(*Element) string) Windower {
	return window.NewSession(gap, key)
}

// Continuous queries (CQL [3]).
type (
	// ContinuousQuery is a deployed CQL query, usable as a Processor's Op.
	ContinuousQuery = cql.Query
	// AggSpec is one aggregate column of a continuous query.
	AggSpec = cql.AggSpec
	// EmitMode selects IStream/DStream/RStream output.
	EmitMode = cql.EmitMode
	// RelOp is an incremental relational operator.
	RelOp = cql.RelOp
)

// Relation-to-stream modes.
const (
	// IStream emits each tuple when it enters the result relation.
	IStream EmitMode = cql.IStream
	// DStream emits each tuple when it leaves the result relation.
	DStream EmitMode = cql.DStream
	// RStream emits the whole result relation at every change instant.
	RStream EmitMode = cql.RStream
)

// Aggregate functions.
const (
	// Count counts a group's rows.
	Count = cql.Count
	// Sum adds a group's field values.
	Sum = cql.Sum
	// Avg averages a group's field values.
	Avg = cql.Avg
	// Min keeps a group's smallest field value.
	Min = cql.Min
	// Max keeps a group's largest field value.
	Max = cql.Max
)

// NewContinuousQuery builds a continuous query: stream → window →
// relational chain → stream. Set keyed for per-key windowers (sessions).
func NewContinuousQuery(name, source string, w Windower, keyed bool, mode EmitMode, ops ...RelOp) *ContinuousQuery {
	return cql.NewQuery(name, source, w, keyed, mode, ops...)
}

// Aggregate returns a grouping/aggregating relational operator.
func Aggregate(groupBy []string, specs ...AggSpec) RelOp {
	return cql.NewAggregate(groupBy, specs...)
}

// Expr is a parsed expression (gates, rule clauses).
type Expr = lang.Expr

// ParseExpr parses an expression, e.g. a processor gate:
// "EXISTS active(e.user) AND e.amount > 10".
func ParseExpr(src string) (Expr, error) { return lang.ParseExpr(src) }

// QueryOpt configures one execution of a prepared query (Engine.Prepare):
// AsOfSystemTime, WithQueryParallelism.
type QueryOpt = core.QueryOpt

// AsOfSystemTime pins a prepared execution's belief (transaction time),
// overriding any SYSTEM TIME ASOF clause in the query text.
func AsOfSystemTime(t Instant) QueryOpt { return core.AsOfSystemTime(t) }

// WithQueryParallelism bounds the partitioned gather's workers for one
// prepared execution (n <= 0 restores the default; 1 forces serial).
func WithQueryParallelism(n int) QueryOpt { return core.WithQueryParallelism(n) }

// State repository and reasoning.
type (
	// Store is the state repository (reachable via Engine.Store): the
	// in-memory bitemporal database, plus the stream-append Replace.
	Store = state.Store
	// ReadOpt configures a temporal read (AsOfValidTime,
	// AsOfTransactionTime, AllVersions).
	ReadOpt = state.ReadOpt
	// WriteOpt configures a temporal write (WithValidTime,
	// WithEndValidTime, WithTransactionTime).
	WriteOpt = state.WriteOpt
	// DurableStore is the segment-backed durable state store behind
	// WithDurableDir (reachable via Engine.Durable, or standalone through
	// OpenDurableStore). Its point reads fall through RAM to durable
	// segment frames.
	DurableStore = segment.Store
	// DurableOption configures a store opened with OpenDurableStore.
	DurableOption = segment.Option
	// Ontology holds a class taxonomy.
	Ontology = reason.Ontology
	// Reasoner materializes implicit facts over the store.
	Reasoner = reason.Reasoner
)

// NewStore returns a standalone state repository (engines create their
// own; use this for direct store experiments). Lineages are
// hash-partitioned across a GOMAXPROCS-scaled array of lock-striped
// shards, so unrelated keys never contend.
func NewStore() *Store { return state.NewStore() }

// OpenDurableStore opens (or initializes) a standalone durable segment
// store at dir, recovering any existing state: manifest, segment files,
// then the WAL tail. Engines do this themselves via WithDurableDir; use
// OpenDurableStore for direct store experiments that should survive the
// process.
func OpenDurableStore(dir string, opts ...DurableOption) (*DurableStore, error) {
	return segment.Open(dir, opts...)
}

// AsOfValidTime selects the version valid at t in the modeled world.
func AsOfValidTime(t Instant) ReadOpt { return state.AsOfValidTime(t) }

// AsOfTransactionTime selects the versions believed at transaction time
// tt, hiding retroactive corrections recorded later.
func AsOfTransactionTime(tt Instant) ReadOpt { return state.AsOfTransactionTime(tt) }

// AllVersions returns every version instead of one per key.
func AllVersions() ReadOpt { return state.AllVersions() }

// WithValidTime sets the start of a write's valid interval; a past start
// makes the write a retroactive correction.
func WithValidTime(t Instant) WriteOpt { return state.WithValidTime(t) }

// WithEndValidTime bounds a write's valid interval.
func WithEndValidTime(end Instant) WriteOpt { return state.WithEndValidTime(end) }

// WithTransactionTime pins a write's transaction time (defaults to the
// store's transaction clock).
func WithTransactionTime(tt Instant) WriteOpt { return state.WithTransactionTime(tt) }

// NewOntology returns an empty ontology.
func NewOntology() *Ontology { return reason.NewOntology() }

// NewReasoner builds a standalone reasoner over a store (engines attach
// their own via Engine.EnableReasoning).
func NewReasoner(st *Store, ont *Ontology) *Reasoner { return reason.NewReasoner(st, ont) }

// Subscriptions: push-based delivery of state deltas and emitted
// elements at watermark granularity (see DESIGN.md "Subscriptions").
type (
	// Broker fans watermark batches out to subscribers.
	Broker = subscribe.Broker
	// SubscriptionFilter selects which changes and emissions a
	// subscriber receives, or carries a standing query (Query) that is
	// re-evaluated at each watermark.
	SubscriptionFilter = subscribe.Filter
	// DeliveryKind discriminates the payloads a subscriber receives.
	DeliveryKind = subscribe.Kind
	// SubOption configures one subscription.
	SubOption = subscribe.SubOption
)

// Delivery kinds.
const (
	// DeliveryDeltas is an ordinary per-watermark delta batch.
	DeliveryDeltas DeliveryKind = subscribe.Deltas
	// DeliveryResync marks a slow consumer's catch-up snapshot.
	DeliveryResync DeliveryKind = subscribe.Resync
	// DeliveryNotice carries an operational event — durability entering
	// or leaving degraded mode — in the delivery's Note field.
	DeliveryNotice DeliveryKind = subscribe.Notice
)

// NewBroker taps the engine's watermark hook and returns a broker ready
// to accept subscriptions. Create it before ingestion starts; close it
// to terminate every subscriber.
func NewBroker(e *Engine) *Broker { return subscribe.NewBroker(e) }

// WithQueueLen sets a subscription's bounded delivery-queue length.
func WithQueueLen(n int) SubOption { return subscribe.WithQueueLen(n) }
