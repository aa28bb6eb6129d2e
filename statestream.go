// Package statestream is a stream processing library with explicit state
// management, reproducing the model of Margara, Dell'Aglio, and Bernstein,
// "Break the Windows: Explicit State Management for Stream Processing
// Systems" (EDBT 2017).
//
// The paper's Figure 1 architecture maps onto this API as follows:
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
//     transaction-time interval. It is queryable on demand (Engine.Query)
//     with a temporal SELECT dialect — CURRENT, ASOF t, DURING a TO b,
//     HISTORY — each composable with SYSTEM TIME ASOF tt to query a past
//     belief. The option-based StateDB surface (Engine.DB; a Store is
//     one) supports retroactive corrections that supersede, never
//     destroy, history. Store.Replace is the stream-append write that
//     REPLACE rules perform: it rejects out-of-order instants instead.
//   - A Reasoner (Engine.EnableReasoning or WithReasoning) materializes
//     implicit facts from ontologies and Horn rules, augmenting both
//     queries and gates.
//   - WithDurableDir makes the state repository durable: committed
//     lineage heads flush into append-only, checksummed segment files, a
//     WAL covers the tail, and constructing an engine on the same
//     directory recovers the exact bitemporal state (Engine.Close
//     flushes the final cut).
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
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/rules"
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
	// ProcessorStats reports per-processor element counters.
	ProcessorStats = core.ProcessorStats
	// Option configures an Engine at construction (Policy values are
	// Options themselves, so New(StateFirst) still works).
	Option = core.Option
)

// Interaction policies (see Policy).
const (
	StateFirst  = core.StateFirst
	StreamFirst = core.StreamFirst
	Snapshot    = core.Snapshot
)

// New returns an engine configured by the given options; with none it
// uses the StateFirst policy. A bare Policy is accepted as an option.
func New(opts ...Option) *Engine { return core.New(opts...) }

// WithPolicy selects the state/stream interaction policy.
func WithPolicy(p Policy) Option { return core.WithPolicy(p) }

// WithReasoning attaches a reasoner over the given ontology (nil for an
// empty one).
func WithReasoning(ont *Ontology) Option { return core.WithReasoning(ont) }

// WithEmittedRetention bounds how many EMIT-derived elements the engine
// retains for Emitted (default core.DefaultEmittedRetention; n <= 0 keeps
// everything).
func WithEmittedRetention(n int) Option { return core.WithEmittedRetention(n) }

// WithDurableDir persists the engine's state repository in a durable
// segment directory: committed lineage heads flush as immutable,
// checksummed segment files as the watermark advances, a WAL covers the
// tail since the last flush, and constructing an engine on an existing
// directory recovers the exact bitemporal state — without replaying the
// full history. Call Engine.Close to flush the final cut; crashing
// without Close loses nothing but that flush. See DESIGN.md
// "Durability".
func WithDurableDir(path string, opts ...DurableOption) Option {
	return core.WithDurableDir(path, opts...)
}

// DurableFlushEvery tunes WithDurableDir's background flush cadence: a
// flush starts once the WAL tail holds n records and the watermark
// advances.
func DurableFlushEvery(n int) DurableOption { return segment.WithFlushEvery(n) }

// DurableRetry tunes how background flushes respond to transient disk
// errors (capped exponential backoff with jitter) before the store
// degrades. See DESIGN.md "Failure model".
func DurableRetry(p DurableRetryPolicy) DurableOption { return segment.WithRetryPolicy(p) }

// DurableBeliefRetention bounds how long superseded belief versions stay
// reachable in durable storage: background segment merges drop versions
// whose supersession is older than d relative to the merge's durable
// cut. Current beliefs and valid-time history are never pruned — only
// transaction-time AsOf reads older than the horizon lose resolution.
// See DESIGN.md "Compaction and the segmented WAL".
func DurableBeliefRetention(d time.Duration) DurableOption {
	return segment.WithBeliefRetention(d)
}

// WithResidencyBudget caps the RAM working set of a durable engine at n
// estimated bytes. As the watermark advances, fully-flushed cold
// lineages are evicted least-recently-used; reads and scans serve them
// from segment frames with identical results, and writes to evicted
// keys fault their history back in. Zero (the default) keeps everything
// resident. See DESIGN.md "Larger-than-RAM state".
func WithResidencyBudget(n int64) Option { return core.WithResidencyBudget(n) }

// DurableResidencyBudget is the standalone-store form of
// WithResidencyBudget, for OpenDurableStore.
func DurableResidencyBudget(n int64) DurableOption {
	return segment.WithResidencyBudget(n)
}

// DurableWALRotateBytes tunes the segmented WAL's rotation threshold:
// the tail log rotates to a fresh numbered file once the active one
// reaches n bytes, so post-flush truncation is whole-file drops instead
// of an in-place rewrite.
func DurableWALRotateBytes(n int64) DurableOption { return segment.WithWALRotateBytes(n) }

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
	// Fact is one timed state element: attr(entity)=value over a
	// validity interval.
	Fact = element.Fact
	// FactKey identifies a fact lineage.
	FactKey = element.FactKey
)

// Value kinds.
const (
	KindNull   = element.KindNull
	KindBool   = element.KindBool
	KindInt    = element.KindInt
	KindFloat  = element.KindFloat
	KindString = element.KindString
	KindTime   = element.KindTime
)

// Value constructors.
var (
	// Null is the absent value.
	Null = element.Null
)

// Bool wraps a boolean value.
func Bool(b bool) Value { return element.Bool(b) }

// Int wraps an integer value.
func Int(i int64) Value { return element.Int(i) }

// Float wraps a float value.
func Float(f float64) Value { return element.Float(f) }

// String wraps a string value.
func String(s string) Value { return element.String(s) }

// Time wraps an instant value.
func Time(t Instant) Value { return element.Time(t) }

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return element.NewSchema(fields...) }

// NewTuple pairs a schema with values.
func NewTuple(schema *Schema, values ...Value) *Tuple { return element.NewTuple(schema, values...) }

// NewElement builds a stream element.
func NewElement(stream string, ts Instant, tuple *Tuple) *Element {
	return element.New(stream, ts, tuple)
}

// NewFact builds a fact with explicit validity.
func NewFact(entity, attribute string, v Value, validity Interval) *Fact {
	return element.NewFact(entity, attribute, v, validity)
}

// Time algebra.
type (
	// Instant is a point on the application time line (ns since epoch).
	Instant = temporal.Instant
	// Interval is a half-open validity interval [Start, End).
	Interval = temporal.Interval
)

// Distinguished instants.
const (
	// Forever marks a still-open validity interval end.
	Forever = temporal.Forever
	// MinInstant is the earliest representable instant.
	MinInstant = temporal.MinInstant
)

// FromTime converts a time.Time to an Instant.
func FromTime(t time.Time) Instant { return temporal.FromTime(t) }

// FromMillis converts epoch milliseconds to an Instant.
func FromMillis(ms int64) Instant { return temporal.FromMillis(ms) }

// NewInterval returns [start, end).
func NewInterval(start, end Instant) Interval { return temporal.NewInterval(start, end) }

// Since returns the open interval [start, Forever).
func Since(start Instant) Interval { return temporal.Since(start) }

// Streams and messages.
type (
	// Message is one unit of stream input: an element or a watermark.
	Message = stream.Message
	// Operator is a synchronous stream transformer.
	Operator = stream.Operator
	// Collector is a sink operator retaining elements.
	Collector = stream.Collector
)

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

// Windows (the baselines of §2, usable inside Processors).
type (
	// Windower is the incremental window evaluation interface.
	Windower = window.Windower
	// Pane is one closed window with its contents.
	Pane = window.Pane
)

// NewTumblingTime returns fixed consecutive time windows.
func NewTumblingTime(size Instant) Windower { return window.NewTumblingTime(size) }

// NewSlidingTime returns overlapping time windows.
func NewSlidingTime(size, slide Instant) Windower { return window.NewSlidingTime(size, slide) }

// NewTumblingCount returns fixed-size count windows.
func NewTumblingCount(n int) Windower { return window.NewTumblingCount(n) }

// NewSlidingCount returns sliding count windows.
func NewSlidingCount(n, slide int) Windower { return window.NewSlidingCount(n, slide) }

// NewSessionWindow returns gap-based per-key session windows [1].
func NewSessionWindow(gap Instant, key func(*Element) string) Windower {
	return window.NewSession(gap, key)
}

// NewPredicateWindow returns content-delimited per-key windows [8].
func NewPredicateWindow(key func(*Element) string, opens, closes func(*Element) bool) Windower {
	return window.NewPredicate(key, opens, closes)
}

// Continuous queries (CQL [3]).
type (
	// ContinuousQuery is a deployed CQL query (implements Operator).
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
	IStream = cql.IStream
	DStream = cql.DStream
	RStream = cql.RStream
)

// Aggregate functions.
const (
	Count = cql.Count
	Sum   = cql.Sum
	Avg   = cql.Avg
	Min   = cql.Min
	Max   = cql.Max
)

// NewContinuousQuery builds a continuous query: stream → window →
// relational chain → stream. Set keyed for per-key windowers (sessions,
// predicate windows).
func NewContinuousQuery(name, source string, w Windower, keyed bool, mode EmitMode, ops ...RelOp) *ContinuousQuery {
	return cql.NewQuery(name, source, w, keyed, mode, ops...)
}

// Select returns a filtering relational operator.
func Select(pred func(*Tuple) bool) RelOp { return cql.NewSelect(pred) }

// Project returns a projecting relational operator.
func Project(fields ...string) RelOp { return cql.NewProject(fields...) }

// Aggregate returns a grouping/aggregating relational operator.
func Aggregate(groupBy []string, specs ...AggSpec) RelOp {
	return cql.NewAggregate(groupBy, specs...)
}

// Expressions, rules, queries.
type (
	// Expr is a parsed expression (gates, rule clauses).
	Expr = lang.Expr
	// Rule is a parsed state management rule.
	Rule = rules.Rule
	// RuleSet is a compiled set of state management rules.
	RuleSet = rules.Set
	// QueryResult is the output table of an on-demand state query.
	QueryResult = query.Result
	// PreparedQuery is an on-demand query parsed and planned once
	// against an engine (Engine.Prepare), executable many times: each
	// Exec pins a fresh snapshot (or one supplied with AtSnapshot) and
	// runs the planned partitioned gather without re-parsing.
	PreparedQuery = core.PreparedQuery
	// QueryOpt configures one execution of a prepared query
	// (AtSnapshot, AsOfSystemTime, WithQueryParallelism).
	QueryOpt = core.QueryOpt
	// QueryPlan is the physical plan of a prepared query
	// (PreparedQuery.Explain): partitions, pushed predicates, value
	// bounds, and pruning decisions.
	QueryPlan = query.Plan
)

// Prepared query execution options (see PreparedQuery.Exec).

// AtSnapshot evaluates a prepared execution against an explicit pinned
// snapshot handle — e.g. one received in a WatermarkBatch — instead of
// pinning a fresh one.
func AtSnapshot(sn *StateSnapshot) QueryOpt { return core.AtSnapshot(sn) }

// AsOfSystemTime pins a prepared execution's belief (transaction time),
// overriding any SYSTEM TIME ASOF clause in the query text.
func AsOfSystemTime(t Instant) QueryOpt { return core.AsOfSystemTime(t) }

// WithQueryParallelism bounds the partitioned gather's workers for one
// prepared execution (n <= 0 restores the default; 1 forces serial).
func WithQueryParallelism(n int) QueryOpt { return core.WithQueryParallelism(n) }

// ParseExpr parses an expression, e.g. a processor gate:
// "EXISTS active(e.user) AND e.amount > 10".
func ParseExpr(src string) (Expr, error) { return lang.ParseExpr(src) }

// ParseRules parses a rule file into a compiled rule set.
func ParseRules(src string) (*RuleSet, error) { return rules.ParseSet(src) }

// State repository and reasoning.
type (
	// Store is the state repository (reachable via Engine.Store). It is
	// the in-memory StateDB, plus the stream-append Replace/PutBatch.
	Store = state.Store
	// StateDB is the bitemporal database interface over the state
	// repository: Find/List/Put/Delete/History with functional temporal
	// options (reachable via Engine.DB).
	StateDB = state.StateDB
	// ReadOpt configures a temporal read (AsOfValidTime,
	// AsOfTransactionTime, WithAttribute, AllVersions, DuringValidTime).
	ReadOpt = state.ReadOpt
	// WriteOpt configures a temporal write (WithValidTime,
	// WithEndValidTime, WithTransactionTime, WithSource, WithDerived).
	WriteOpt = state.WriteOpt
	// StoreStats summarizes store occupancy.
	StoreStats = state.Stats
	// ReadSpec is the pre-resolved, allocation-free form of a point-read
	// option list (see Store.FindValue).
	ReadSpec = state.ReadSpec
	// BatchPut is one Store.Replace write in a Store.PutBatch group
	// commit (the micro-batch ingestion write path).
	BatchPut = state.BatchPut
	// StateSnapshot is an immutable handle over one consistent cut of the
	// store, pinned at a transaction-clock instant (Store.Snapshot).
	// Reads through it acquire no shard locks, so long analytical scans
	// never stall ingestion. (Named StateSnapshot because Snapshot is the
	// engine policy constant.)
	StateSnapshot = state.Snapshot
	// StateReader is the read-only temporal query surface shared by
	// Store and StateSnapshot; query executors evaluate against it.
	StateReader = state.Reader
	// DurableStore is the segment-backed durable state store behind
	// WithDurableDir (reachable via Engine.Durable, or standalone through
	// OpenDurableStore). Its point reads fall through RAM to durable
	// segment frames.
	DurableStore = segment.Store
	// DurableOption configures a durable directory (DurableFlushEvery).
	DurableOption = segment.Option
	// DurableInfo summarizes a durable directory (DurableStore.Info).
	DurableInfo = segment.Info
	// Degraded describes a durable store running in degraded mode after
	// a permanent (or retry-exhausted) disk failure: ingestion and RAM
	// reads continue, durability is suspended until Flush or Resume
	// succeeds (DurableStore.Degraded, Engine.Health).
	Degraded = segment.Degraded
	// Health is the engine's serving posture: nil Degraded and nil
	// DurableErr mean fully durable (Engine.Health).
	Health = core.Health
	// DurableRetryPolicy tunes how background flushes retry transient
	// disk errors before degrading (DurableRetry).
	DurableRetryPolicy = segment.RetryPolicy
	// Ontology holds class/property taxonomies and domain/range axioms.
	Ontology = reason.Ontology
	// Reasoner materializes implicit facts over the store.
	Reasoner = reason.Reasoner
	// HornRule is one user-defined derivation rule.
	HornRule = reason.HornRule
	// TriplePattern is one premise or conclusion of a HornRule.
	TriplePattern = reason.TriplePattern
	// Term is a variable or constant in a TriplePattern.
	Term = reason.Term
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

// Temporal read options (see StateDB).

// AsOfValidTime selects the version valid at t in the modeled world.
func AsOfValidTime(t Instant) ReadOpt { return state.AsOfValidTime(t) }

// AsOfTransactionTime selects the versions believed at transaction time
// tt, hiding retroactive corrections recorded later.
func AsOfTransactionTime(tt Instant) ReadOpt { return state.AsOfTransactionTime(tt) }

// DuringValidTime restricts List to versions overlapping [from, to).
func DuringValidTime(from, to Instant) ReadOpt { return state.DuringValidTime(from, to) }

// WithAttribute scopes List to one attribute.
func WithAttribute(attr string) ReadOpt { return state.WithAttribute(attr) }

// AllVersions returns every version instead of one per key.
func AllVersions() ReadOpt { return state.AllVersions() }

// Temporal write options (see StateDB).

// WithValidTime sets the start of a write's valid interval; a past start
// makes the write a retroactive correction.
func WithValidTime(t Instant) WriteOpt { return state.WithValidTime(t) }

// WithEndValidTime bounds a write's valid interval.
func WithEndValidTime(end Instant) WriteOpt { return state.WithEndValidTime(end) }

// WithTransactionTime pins a write's transaction time (defaults to the
// store's transaction clock).
func WithTransactionTime(tt Instant) WriteOpt { return state.WithTransactionTime(tt) }

// WithSource labels the written version with a producing rule name.
func WithSource(source string) WriteOpt { return state.WithSource(source) }

// WithDerived marks the written version as reasoner-materialized.
func WithDerived() WriteOpt { return state.WithDerived() }

// NewOntology returns an empty ontology.
func NewOntology() *Ontology { return reason.NewOntology() }

// NewReasoner builds a standalone reasoner over a store (engines attach
// their own via Engine.EnableReasoning).
func NewReasoner(st *Store, ont *Ontology) *Reasoner { return reason.NewReasoner(st, ont) }

// Var returns a variable term for Horn rules.
func Var(name string) Term { return reason.V(name) }

// Const returns a constant term for Horn rules.
func Const(v Value) Term { return reason.C(v) }

// Event patterns (CEP, usable in rule triggers via ON SEQ(...) and
// directly through the cep matcher).
type (
	// Pattern is a CEP situation declaration.
	Pattern = cep.Pattern
	// PatternMatch is one detected situation with interval semantics.
	PatternMatch = cep.Match
	// Matcher evaluates a pattern over a stream.
	Matcher = cep.Matcher
)

// NewMatcher compiles a pattern.
func NewMatcher(p Pattern) (*Matcher, error) { return cep.NewMatcher(p) }

// EventPattern matches any element of the stream.
func EventPattern(stream string) Pattern { return cep.Event(stream) }

// SequencePattern matches its sub-patterns in temporal order.
func SequencePattern(ps ...Pattern) Pattern { return cep.Sequence(ps...) }

// WithinPattern bounds a pattern's span.
func WithinPattern(p Pattern, d Instant) Pattern { return &cep.Within{P: p, D: d} }

// Subscriptions: push-based delivery of state deltas and emitted
// elements at watermark granularity (see DESIGN.md "Subscriptions").
type (
	// WatermarkBatch is everything one watermark advance closed: the
	// pinned snapshot, the state changes, and the emitted elements.
	WatermarkBatch = core.WatermarkBatch
	// WatermarkHook observes watermark batches (Engine.OnWatermark).
	WatermarkHook = core.WatermarkHook
	// Broker fans watermark batches out to subscribers.
	Broker = subscribe.Broker
	// Subscriber is one registered subscription's receive handle.
	Subscriber = subscribe.Subscriber
	// SubscriptionFilter selects which changes and emissions a
	// subscriber receives, or carries a standing query (Query) that is
	// re-evaluated at each watermark.
	SubscriptionFilter = subscribe.Filter
	// Delivery is one pushed update: a per-watermark delta batch, a
	// standing-query result, or a resync snapshot.
	Delivery = subscribe.Delivery
	// DeliveryKind discriminates Delivery payloads.
	DeliveryKind = subscribe.Kind
	// SubOption configures one subscription.
	SubOption = subscribe.SubOption
	// BrokerMetrics reports broker-level fan-out counters.
	BrokerMetrics = subscribe.Metrics
)

// Delivery kinds.
const (
	// DeliveryDeltas is an ordinary per-watermark delta batch.
	DeliveryDeltas = subscribe.Deltas
	// DeliveryResync marks a slow consumer's catch-up snapshot.
	DeliveryResync = subscribe.Resync
	// DeliveryNotice carries an operational event — durability entering
	// or leaving degraded mode — in the Delivery's Note field.
	DeliveryNotice = subscribe.Notice
)

// NewBroker taps the engine's watermark hook and returns a broker ready
// to accept subscriptions. Create it before ingestion starts; close it
// to terminate every subscriber.
func NewBroker(e *Engine) *Broker { return subscribe.NewBroker(e) }

// WithQueueLen sets a subscription's bounded delivery-queue length.
func WithQueueLen(n int) SubOption { return subscribe.WithQueueLen(n) }

// ResumeFrom resumes a subscription from a prior watermark cursor: a
// stale cursor yields an immediate resync snapshot before live deltas.
func ResumeFrom(cursor Instant) SubOption { return subscribe.ResumeFrom(cursor) }
