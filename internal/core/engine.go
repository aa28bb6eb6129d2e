// Package core implements the paper's primary contribution: the stream
// processing engine with explicit state management of Figure 1.
//
// Input streams are routed to two components:
//
//   - The state management component (internal/rules) updates the state
//     repository (internal/state) according to deployed state management
//     rules.
//   - The stream processing component evaluates deployed processors —
//     CQL continuous queries (internal/cql) optionally preceded by
//     state-aware operators (a state-condition gate and state enrichment) —
//     producing output streams.
//
// Users can query the state repository on demand (internal/query), and a
// reasoner (internal/reason) augments both queries and rule conditions
// with ontology-derived facts.
//
// The engine resolves the paper's third open question (§3.3, "interaction
// between stream processing and state") with three pluggable policies; see
// Policy.
//
// With WithDurableDir the engine persists its state repository in a
// durable segment directory (internal/state/segment): flushes are
// pinned at watermarks, restarts recover the exact bitemporal state,
// and Close flushes the final cut.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// Policy fixes when stream processing observes state updates triggered at
// the same timestamp (§3.3, open question 3).
type Policy int

// Interaction policies.
const (
	// StateFirst (default): at timestamp t, state management rules fire
	// before stream processors evaluate, so processors observe the state
	// as of t including this tick's updates. This matches the paper's
	// security example: the position update must invalidate the previous
	// position before any conclusion is drawn.
	StateFirst Policy = iota
	// StreamFirst: processors at t observe the state as of just before t;
	// rules apply afterwards. Models systems where enrichment lags
	// updates by one tick.
	StreamFirst
	// Snapshot: processors observe an immutable view taken at the last
	// watermark, as micro-batch systems do [14]. The view is
	// transaction-time consistent: gates and enrichment read the state as
	// believed at the watermark (state.AsOfTransactionTime), so even
	// retroactive corrections recorded after the watermark cannot leak
	// into the current micro-batch.
	Snapshot
)

// applyOption makes Policy usable directly as an engine Option, so the
// historical New(StateFirst) call sites keep working unchanged.
func (p Policy) applyOption(e *Engine) { e.policy = p }

// String names the policy.
func (p Policy) String() string {
	switch p {
	case StateFirst:
		return "state-first"
	case StreamFirst:
		return "stream-first"
	}
	return "snapshot"
}

// EnrichSpec adds one field to elements from the state repository: the
// current value of Attr(entity), where entity is read from the element's
// EntityField. Missing state yields Null.
type EnrichSpec struct {
	Attr        string
	EntityField string
	As          string
}

// Processor is one deployed stream processing pipeline: an optional state
// gate, optional state enrichment, then an operator (typically a
// *cql.Query), with a collector sink.
type Processor struct {
	// Name identifies the processor and its output.
	Name string
	// Source limits input to one stream; empty accepts all.
	Source string
	// Gate, when set, drops elements for which the expression is not
	// truthy. The expression sees the element as binding "e" and may read
	// state: EXISTS active(e.user). This is §1's "activating some
	// derivations only when specific conditions on the state are met".
	Gate lang.Expr
	// Enrich appends state-derived fields to the element before the
	// operator sees it.
	Enrich []EnrichSpec
	// Op is the stream operator; nil passes elements straight to the sink.
	Op stream.Operator

	sink *stream.Collector
	// stats
	seen, gated, processed uint64
	enrichSchemas          map[*element.Schema]*element.Schema
}

// ProcessorStats reports element counters for one processor.
type ProcessorStats struct {
	Name string
	// Seen counts elements offered to the processor.
	Seen uint64
	// Gated counts elements dropped by the state gate.
	Gated uint64
	// Processed counts elements that reached the operator.
	Processed uint64
}

// Engine is the explicit-state stream processing system.
type Engine struct {
	policy     Policy
	store      *state.Store
	ruleSet    *rules.Set
	processors []*Processor
	reasoner   *reason.Reasoner

	// watermark is read by on-demand Query callers concurrently with
	// ingestion, hence atomic (it holds a temporal.Instant).
	watermark atomic.Int64
	// pinned is the snapshot handle taken at the last watermark: the
	// Snapshot policy's view instant (pinned.At()) and the immutable cut
	// its gate/enrich reads resolve against. Re-pinned (O(1)) each time
	// the watermark advances.
	pinned  *state.Snapshot
	emitted []*element.Element
	// emittedCap bounds the retained EMIT-derived elements (0 =
	// unlimited): at least the most recent emittedCap are kept.
	emittedCap int
	elements   uint64

	// gateScratch is the reusable gate evaluation environment; processors
	// run single-threaded, so one scratch per engine suffices.
	gateScratch gateEnv

	// durable is the segment-backed durability layer around the store
	// (WithDurableDir); nil for a purely in-memory engine. durableErr
	// latches an open failure, surfaced by the next Process/Run/Close.
	// The options record the directory and its segment options; New
	// opens it after the option loop.
	durable     *segment.Store
	durableErr  error
	durablePath string
	durableOpts []segment.Option

	// wmHooks are the watermark-boundary taps (OnWatermark): each hook
	// receives the batch closed by an advancing watermark — the pinned
	// snapshot plus the change events and emitted elements accumulated
	// since the previous watermark. With no hooks the engine registers no
	// store watcher, so the unwatched fast path does zero extra work (the
	// store skips event clones entirely when it has no watchers).
	wmHooks []WatermarkHook
	// wmMu guards wmChanges: the store's batch watcher runs on whichever
	// goroutine commits a write, and callers may write through Store()
	// from goroutines other than the one running Process or Run.
	wmMu      sync.Mutex
	wmChanges []state.Change
	wmEmitted []*element.Element
	// wmTap records that the change watcher is installed (set once by the
	// first OnWatermark; read on the emitted hot paths).
	wmTap bool
}

// WatermarkBatch is the unit handed to watermark hooks: everything one
// advancing watermark closed over. Snapshot is the engine's freshly
// pinned O(1) handle at the watermark — hook consumers read catch-up
// state through it lock-free. Changes are the state transitions committed
// since the previous watermark (store change events, in commit order) and
// Emitted the EMIT-derived elements of the same span. The slices are
// owned by the receiver: the engine hands them off and starts fresh
// buffers, so hooks may retain them without copying.
type WatermarkBatch struct {
	// Watermark is the instant that closed the batch.
	Watermark temporal.Instant
	// Snapshot is pinned at Watermark: one consistent multi-shard cut.
	Snapshot *state.Snapshot
	// Changes are the span's state transitions in commit order.
	Changes []state.Change
	// Emitted are the span's EMIT-derived elements in emission order.
	Emitted []*element.Element
}

// WatermarkHook observes watermark batches. Hooks run synchronously on
// the ingestion driver goroutine each time the watermark advances — they
// must not block (the subscription broker, the canonical consumer, does a
// non-blocking channel hand-off and resynchronizes on overflow).
type WatermarkHook func(WatermarkBatch)

// Option configures an Engine at construction. Policy values implement
// Option directly, so both styles work:
//
//	core.New(core.Snapshot)
//	core.New(core.WithPolicy(core.Snapshot), core.WithDurableDir(dir))
type Option interface{ applyOption(*Engine) }

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*Engine)

func (f optionFunc) applyOption(e *Engine) { f(e) }

// WithPolicy selects the state/stream interaction policy (default
// StateFirst).
func WithPolicy(p Policy) Option {
	return optionFunc(func(e *Engine) { e.policy = p })
}

// WithDurableDir persists the engine's state repository in a durable
// segment directory at path (see internal/state/segment): committed
// lineage heads flush as immutable checksummed segment files as the
// watermark advances, a WAL covers the tail since the last flush, and
// restarting an engine on the same directory recovers the exact
// bitemporal state — manifest, segments, WAL tail — without replaying
// the full history. Opening also replays any existing durable state
// into the fresh engine's store, so construction doubles as recovery.
//
// Flushes pin the engine watermark as their cut. The stream contract
// (elements arrive in timestamp order, none at or before a passed
// watermark) therefore guarantees no write lands behind a durable cut;
// see DESIGN.md "Durability". An open failure (corrupt directory,
// permissions) is latched and returned by the next Process, Run, or
// Close. The directory's WAL chain is the engine's only mutation log.
//
// Extra segment options (e.g. segment.WithFlushEvery) tune the flush
// cadence. They are appended to those other options (WithResidencyBudget)
// add, so the order of the engine options does not matter.
func WithDurableDir(path string, opts ...segment.Option) Option {
	return optionFunc(func(e *Engine) {
		e.durablePath = path
		e.durableOpts = append(e.durableOpts, opts...)
	})
}

// WithResidencyBudget caps the RAM working set of a durable engine at n
// estimated bytes (see segment.WithResidencyBudget): as the watermark
// advances, fully-flushed least-recently-used lineages are evicted from
// RAM, reads fall through to their segment frames, and writes fault
// them back in — derived state larger than RAM keeps serving. A
// convenience wrapper over the extra-options slot of WithDurableDir;
// it has no effect without WithDurableDir.
func WithResidencyBudget(n int64) Option {
	return optionFunc(func(e *Engine) {
		e.durableOpts = append(e.durableOpts, segment.WithResidencyBudget(n))
	})
}

// DefaultEmittedRetention bounds Emitted's buffer unless overridden: a
// long-running ingest no longer accumulates every derived element forever.
const DefaultEmittedRetention = 1 << 16

// WithEmittedRetention bounds how many EMIT-derived elements the engine
// retains for Emitted: at least the most recent n are kept (n <= 0 keeps
// everything, the historical behavior). Retention only trims the engine's
// buffer — derived elements still flow to stream processors regardless.
func WithEmittedRetention(n int) Option {
	if n < 0 {
		n = 0
	}
	return optionFunc(func(e *Engine) { e.emittedCap = n })
}

// New returns an engine configured by the given options; with none it
// uses the StateFirst policy over a fresh in-memory store.
func New(opts ...Option) *Engine {
	e := &Engine{
		policy:     StateFirst,
		store:      state.NewStore(),
		emittedCap: DefaultEmittedRetention,
	}
	e.pinned = e.store.SnapshotAt(temporal.MinInstant)
	e.watermark.Store(int64(temporal.MinInstant))
	for _, o := range opts {
		o.applyOption(e)
	}
	if e.durablePath != "" {
		d, err := segment.Open(e.durablePath,
			append([]segment.Option{segment.WithStore(e.store)}, e.durableOpts...)...)
		if err != nil {
			e.durableErr = err
		} else {
			e.durable = d
		}
	}
	return e
}

// OnWatermark registers a hook invoked each time the watermark advances,
// with the batch the watermark closed (see WatermarkBatch). The first
// registration installs a store batch watcher to collect change events —
// until then ingestion commits with no watchers and pays nothing for the
// tap; with the tap installed the cost is one lock and one bulk copy per
// committed mutation (the store's change facts are lineage-shared, not
// cloned). Register hooks before ingestion starts; hooks run on the
// driver goroutine and must not block.
func (e *Engine) OnWatermark(h WatermarkHook) {
	if h == nil {
		return
	}
	e.wmHooks = append(e.wmHooks, h)
	if e.wmTap {
		return
	}
	e.wmTap = true
	e.store.WatchBatch(func(chs []state.Change) {
		// chs is store-owned scratch: append copies the structs out.
		e.wmMu.Lock()
		e.wmChanges = append(e.wmChanges, chs...)
		e.wmMu.Unlock()
	})
}

// takeWatermarkBatch hands off the accumulated change/emitted buffers for
// the batch closed at wm, leaving fresh buffers behind.
func (e *Engine) takeWatermarkBatch(wm temporal.Instant) WatermarkBatch {
	e.wmMu.Lock()
	changes := e.wmChanges
	e.wmChanges = nil
	e.wmMu.Unlock()
	emitted := e.wmEmitted
	e.wmEmitted = nil
	return WatermarkBatch{Watermark: wm, Snapshot: e.pinned, Changes: changes, Emitted: emitted}
}

// Store exposes the state repository (e.g. for seeding background state).
func (e *Engine) Store() *state.Store { return e.store }

// DB exposes the state repository as a bitemporal StateDB (retroactive
// corrections, transaction-time reads).
func (e *Engine) DB() state.StateDB { return e.store }

// DeployRules installs the state management rules, replacing any previous
// set.
func (e *Engine) DeployRules(src string) error {
	set, err := rules.ParseSet(src)
	if err != nil {
		return err
	}
	e.ruleSet = set
	return nil
}

// DeployProcessor installs a stream processor.
func (e *Engine) DeployProcessor(p *Processor) error {
	if p.Name == "" {
		return fmt.Errorf("core: processor needs a name")
	}
	for _, existing := range e.processors {
		if existing.Name == p.Name {
			return fmt.Errorf("core: duplicate processor %q", p.Name)
		}
	}
	p.sink = stream.NewCollector()
	p.enrichSchemas = make(map[*element.Schema]*element.Schema)
	e.processors = append(e.processors, p)
	return nil
}

// EnableReasoning attaches a reasoner with the given ontology (nil for an
// empty one) and returns it so callers can add Horn rules.
func (e *Engine) EnableReasoning(ont *reason.Ontology) *reason.Reasoner {
	e.reasoner = reason.NewReasoner(e.store, ont)
	return e.reasoner
}

// Process feeds one message (element or watermark) through Figure 1.
// Messages must arrive in timestamp order. The message's state writes
// are in the WAL when Process returns.
func (e *Engine) Process(m stream.Message) error {
	return e.commit(e.process(m))
}

// commit writes the store's staged WAL writes — the rules' Replaces —
// as one frame, returning err, or the commit's error when err
// is nil. Run and Process commit on their error paths too, so the
// applied prefix is logged.
func (e *Engine) commit(err error) error {
	if cerr := e.store.Commit(); err == nil {
		err = cerr
	}
	return err
}

// process is Process without the commit: Run drives a whole message
// batch through it and commits once.
func (e *Engine) process(m stream.Message) error {
	if e.durableErr != nil {
		return e.durableErr
	}
	if m.IsWatermark {
		return e.advance(m.Watermark)
	}
	e.elements++
	return e.processElement(m.El)
}

// processElement is the per-element path: the policy-ordered
// interleaving of rule application and stream processing.
func (e *Engine) processElement(el *element.Element) error {
	switch e.policy {
	case StateFirst:
		derived, err := e.applyRules(el)
		if err != nil {
			return err
		}
		e.processStreams(el, el.Timestamp)
		for _, d := range derived {
			e.processStreams(d, d.Timestamp)
		}
	case StreamFirst:
		// Processors observe the state just before this element's updates.
		e.processStreams(el, el.Timestamp-1)
		derived, err := e.applyRules(el)
		if err != nil {
			return err
		}
		for _, d := range derived {
			e.processStreams(d, d.Timestamp-1)
		}
	case Snapshot:
		e.processStreams(el, e.pinned.At())
		derived, err := e.applyRules(el)
		if err != nil {
			return err
		}
		for _, d := range derived {
			e.processStreams(d, e.pinned.At())
		}
	}
	return nil
}

// Run drives a whole message batch and returns the first error. The WAL
// receives the batch's rule writes as one frame per micro-batch: each
// watermark inside ms commits the writes before it, and Run commits the
// rest before returning — the acknowledgement point for durable engines.
func (e *Engine) Run(ms []stream.Message) error {
	return e.commit(e.run(ms))
}

func (e *Engine) run(ms []stream.Message) error {
	for _, m := range ms {
		if err := e.process(m); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) applyRules(el *element.Element) ([]*element.Element, error) {
	if e.ruleSet == nil {
		return nil, nil
	}
	derived, err := e.ruleSet.Apply(el, e.store)
	if err != nil {
		return nil, err
	}
	e.retainEmitted(derived)
	return derived, nil
}

// retainEmitted appends derived elements to the Emitted buffer, enforcing
// the retention cap, and mirrors them into the watermark-batch buffer
// when a hook is tapping the engine. The buffer may overshoot to 2x the
// cap before the oldest elements are dropped, keeping the amortized
// per-append cost O(1) while always retaining at least the most recent
// emittedCap elements.
func (e *Engine) retainEmitted(derived []*element.Element) {
	e.emitted = append(e.emitted, derived...)
	if e.wmTap {
		e.wmEmitted = append(e.wmEmitted, derived...)
	}
	if e.emittedCap > 0 && len(e.emitted) > 2*e.emittedCap {
		n := copy(e.emitted, e.emitted[len(e.emitted)-e.emittedCap:])
		tail := e.emitted[n:]
		for i := range tail {
			tail[i] = nil // release the dropped prefix for GC
		}
		e.emitted = e.emitted[:n]
	}
}

// pointReader is the per-element state read surface gates and enrichment
// resolve against: the live store under StateFirst/StreamFirst, the
// watermark-pinned snapshot handle under the Snapshot policy. Both sides
// are lock-free walks of the published lineage heads.
type pointReader interface {
	FindValue(entity, attr string, spec state.ReadSpec) (element.Value, bool)
}

// readSpec resolves the policy's state-read configuration for processors
// evaluating with state pinned at stateAt. Under the Snapshot policy,
// reads are pinned along both time axes to the watermark instant: valid
// time AND transaction time — the handle's pin. Together with the
// AdvanceClock call in advance, the pinned transaction time makes each
// gate/enrich read resolve against the same consistent multi-shard cut.
// The other policies read the current belief at the chosen valid-time
// instant.
func (e *Engine) readSpec(stateAt temporal.Instant) state.ReadSpec {
	spec := state.ReadSpec{ValidAt: stateAt, HasValidAt: true}
	if e.policy == Snapshot {
		spec.TxAt, spec.HasTxAt = stateAt, true
	}
	return spec
}

// stateSource selects the point-read surface for the policy: the pinned
// watermark snapshot for Snapshot (elements AT the watermark write at
// the pin, which the handle — a pin, not a freeze — correctly exposes
// to later same-instant reads), the live store otherwise.
func (e *Engine) stateSource() pointReader {
	if e.policy == Snapshot {
		return e.pinned
	}
	return e.store
}

func (e *Engine) processStreams(el *element.Element, stateAt temporal.Instant) {
	spec := e.readSpec(stateAt)
	src := e.stateSource()
	for _, p := range e.processors {
		if p.Source != "" && p.Source != el.Stream {
			continue
		}
		p.seen++
		if p.Gate != nil {
			g := &e.gateScratch
			g.el, g.store, g.at, g.spec, g.reasoner = el, src, stateAt, spec, e.reasoner
			ok, err := lang.EvalBool(p.Gate, g)
			if err != nil || !ok {
				p.gated++
				continue
			}
		}
		out := el
		if len(p.Enrich) > 0 {
			out = p.enrichElement(el, src, spec)
		}
		p.processed++
		e.dispatch(p, stream.ElementMsg(out))
	}
}

func (e *Engine) dispatch(p *Processor, m stream.Message) {
	if p.Op == nil {
		p.sink.Process(m)
		return
	}
	for _, out := range p.Op.Process(m) {
		p.sink.Process(out)
	}
}

func (p *Processor) enrichElement(el *element.Element, st pointReader, read state.ReadSpec) *element.Element {
	base := el.Tuple.Schema()
	target := p.enrichSchemas[base]
	vals := el.Tuple.Values()
	extra := make([]element.Value, 0, len(p.Enrich))
	for _, spec := range p.Enrich {
		ent, _ := el.Get(spec.EntityField)
		v := element.Null
		if fv, ok := st.FindValue(ent.String(), spec.Attr, read); ok {
			v = fv
		}
		extra = append(extra, v)
	}
	if target == nil {
		fields := base.Fields()
		for i, spec := range p.Enrich {
			fields = append(fields, element.Field{Name: spec.As, Kind: extra[i].Kind()})
		}
		target = element.NewSchema(fields...)
		p.enrichSchemas[base] = target
	}
	out := element.New(el.Stream, el.Timestamp, element.NewTuple(target, append(vals, extra...)...))
	out.Seq = el.Seq
	return out
}

func (e *Engine) advance(wm temporal.Instant) error {
	if wm <= e.Watermark() {
		return nil
	}
	e.watermark.Store(int64(wm))
	if e.ruleSet != nil {
		e.ruleSet.AdvanceTo(wm)
	}
	for _, p := range e.processors {
		e.dispatch(p, stream.WatermarkMsg(wm))
	}
	// The Snapshot policy refreshes its view at watermarks (micro-batch
	// boundary). Advancing the store's transaction clock in step pins the
	// cut across every shard — any later default-clock write commits
	// strictly after wm — and the engine then takes a fresh O(1) snapshot
	// handle at the watermark: the micro-batch's gate/enrich reads
	// resolve against that one immutable multi-shard cut, lock-free.
	e.store.AdvanceClock(wm)
	e.pinned = e.store.SnapshotAt(wm)
	// Hand the closed batch to watermark hooks after the snapshot is
	// pinned, so hook consumers see the cut the batch's changes produced.
	if len(e.wmHooks) > 0 {
		wb := e.takeWatermarkBatch(wm)
		for _, h := range e.wmHooks {
			h(wb)
		}
	}
	// The watermark is the durability layer's natural cut — minus one
	// tick: a watermark at wm asserts no element EARLIER than wm will
	// follow, so elements stamped exactly wm may still arrive. Flushing
	// at wm-1 keeps every such write strictly after the durable cut.
	// Pulse only records that cut and wakes the store's maintenance
	// loop, which flushes once enough writes arrived since the last
	// flush. The closed batch's staged writes are committed first, so
	// the flush it may start syncs the whole batch.
	if err := e.store.Commit(); err != nil {
		return err
	}
	if e.durable != nil {
		e.durable.Pulse(wm - 1)
	}
	return nil
}

// Durable returns the segment-backed durability layer when the engine
// was built with WithDurableDir, nil otherwise. Its point reads (Find,
// History) fall through RAM to durable segment frames, so evicted state
// stays reachable.
func (e *Engine) Durable() *segment.Store { return e.durable }

// Health summarizes the engine's serving posture for operators and the
// /readyz endpoint. The zero value (both fields nil) means healthy:
// either the engine is purely in-memory or its durable layer is fully
// functional.
type Health struct {
	// Degraded is non-nil while the durable layer is in degraded mode:
	// ingest, reads, queries, and subscriptions keep serving, but
	// flushes have stopped and WAL appends are dropped (see
	// segment.Degraded). A successful Flush or Resume clears it.
	Degraded *segment.Degraded
	// DurableErr is a latched durable-open failure: the engine came up
	// without its durability layer and the next Process/Run/Close will
	// return this error.
	DurableErr error
}

// Healthy reports whether the engine is serving with full durability.
func (h Health) Healthy() bool { return h.Degraded == nil && h.DurableErr == nil }

// Health reports the engine's current health. Safe to call concurrently
// with ingestion.
func (e *Engine) Health() Health {
	h := Health{DurableErr: e.durableErr}
	if e.durable != nil {
		h.Degraded = e.durable.Degraded()
	}
	return h
}

// Close flushes a durable engine's state to its segment directory and
// releases the WAL and segment files. For an in-memory engine it is a
// no-op. Crashing without Close loses nothing but the final flush: the
// WAL tail still covers every committed write.
func (e *Engine) Close() error {
	if e.durableErr != nil {
		return e.durableErr
	}
	if e.durable == nil {
		return nil
	}
	return e.durable.Close()
}

// Watermark reports the engine's current watermark. It is safe to call
// concurrently with ingestion (on-demand Query anchors now() on it).
func (e *Engine) Watermark() temporal.Instant {
	return temporal.Instant(e.watermark.Load())
}

// Output returns the elements collected for the named processor.
func (e *Engine) Output(processor string) []*element.Element {
	for _, p := range e.processors {
		if p.Name == processor {
			return p.sink.Elements
		}
	}
	return nil
}

// Emitted returns elements produced by state management rules (EMIT).
func (e *Engine) Emitted() []*element.Element { return e.emitted }

// Stats returns per-processor counters, in deployment order.
func (e *Engine) Stats() []ProcessorStats {
	out := make([]ProcessorStats, len(e.processors))
	for i, p := range e.processors {
		out[i] = ProcessorStats{Name: p.Name, Seen: p.seen, Gated: p.gated, Processed: p.processed}
	}
	return out
}

// ElementsIn reports how many input elements the engine has processed.
func (e *Engine) ElementsIn() uint64 { return e.elements }

// Query runs an on-demand query against the state repository, with now()
// anchored at the current watermark. WITH INFERENCE consults the attached
// reasoner. The query evaluates against a snapshot handle pinned when the
// call arrives: one consistent cut of every committed write, read without
// any shard locks — an arbitrarily long analytical query never stalls
// concurrent ingestion. Query is prepare-and-exec in one call; callers
// issuing the same text repeatedly should Prepare once and Exec the
// handle (see PreparedQuery).
func (e *Engine) Query(src string) (*query.Result, error) {
	pq, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return pq.Exec()
}

// gateEnv evaluates gate expressions: the element binds as "e" (and under
// its stream name), state lookups read the policy's point-read source —
// the live store, or the watermark-pinned snapshot handle under Snapshot
// — with the policy-chosen read spec (valid-time instant, plus a pinned
// transaction time under Snapshot), augmented by the reasoner when
// attached. The engine reuses one instance (Engine.gateScratch) across
// elements.
type gateEnv struct {
	el       *element.Element
	store    pointReader
	at       temporal.Instant
	spec     state.ReadSpec
	reasoner *reason.Reasoner
}

// Var implements lang.Env.
func (g *gateEnv) Var(string) (element.Value, bool) { return element.Null, false }

// Field implements lang.Env.
func (g *gateEnv) Field(varName, field string) (element.Value, bool) {
	if varName == "e" || varName == g.el.Stream {
		return g.el.Get(field)
	}
	return element.Null, false
}

// State implements lang.Env.
func (g *gateEnv) State(attr string, entity element.Value) (element.Value, bool) {
	if v, ok := g.store.FindValue(entity.String(), attr, g.spec); ok {
		return v, true
	}
	if g.reasoner != nil {
		if vals := g.reasoner.HoldsAt(entity.String(), attr, g.at); len(vals) > 0 {
			return vals[0], true
		}
	}
	return element.Null, false
}

// Now implements lang.Env.
func (g *gateEnv) Now() temporal.Instant { return g.el.Timestamp }
