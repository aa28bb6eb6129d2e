// Parallel micro-batch ingestion (WithParallelism). The watermark — the
// boundary the Snapshot policy already treats as the micro-batch edge —
// delimits batches: elements buffer between watermarks, and each batch
// runs through a three-phase pipeline before the watermark advances:
//
//  1. Parallel rule phase: elements are partitioned by routing key
//     (FNV-1a, the state store's shard hash) onto workers. Each worker
//     applies the stream-trigger rules of its elements in order. For
//     streams whose routed rules are all pure (state-free REPLACE/EMIT;
//     see rules.Set.StreamPure) the writes are deferred and
//     group-committed via state.Store.PutBatch — one lock acquisition
//     per touched shard and one WAL frame per flush; impure elements
//     flush the pending batch first, preserving the worker's write
//     order, then write through.
//  2. Serial pattern phase: CEP matchers are stateful and order-
//     sensitive across streams, so pattern-trigger rules observe the
//     batch's elements in input order on the driver goroutine.
//  3. Serial processor phase: for each element in input order, stream
//     processors evaluate exactly as in the serial path — gates and
//     enrichment read the state at the policy's instant — followed by
//     the element's derived emissions.
//
// Derived (EMIT) elements from both rule phases are merged per input
// element by rule deployment order and numbered with one TakeSeq
// reservation, reproducing the serial path's sequence assignment.
//
// Determinism: with parallelism n the pipeline produces byte-identical
// outputs, state, and (replayed) WAL to the serial path provided:
//
//   - the routing key co-locates each state lineage's writers — all
//     elements whose rules write the same (entity, attribute) share a
//     key — so per-lineage write order is the input order;
//   - rule clauses (WHERE/WHEN) and rule-action expressions do not read
//     state written within the same micro-batch by elements of a
//     different routing key, at any timestamp: phase-1 reads happen
//     physically during the fan-out, so a same-batch cross-key write
//     may not have been applied yet regardless of its logical instant
//     (cross-batch reads are always safe — earlier batches are fully
//     committed at the barrier);
//   - pattern-trigger rules that write state touch only lineages that
//     the batch's stream-trigger rules neither read nor write: pattern
//     actions apply in phase 2, after every phase-1 write;
//   - processor gates and enrichment do not depend on state written at
//     the very same timestamp by other elements of the batch (same or
//     different routing key): phase 3 runs after the rule phases, so a
//     gate read at instant t observes the batch's final state at t,
//     where serial execution lets earlier elements observe a prefix of
//     the writes at t.
//
// Watermark-pinned Snapshot reads make the last condition vacuous for
// that policy, and workloads with strictly increasing timestamps
// satisfy it trivially. The serial path (parallelism 1, the
// default) remains the semantic oracle: core's determinism tests drive
// identical inputs through both and require identical results.

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/element"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/stream"
)

// processBuffered is Process under WithParallelism(n > 1): elements
// buffer until a watermark closes the micro-batch.
func (e *Engine) processBuffered(m stream.Message) error {
	if m.IsWatermark {
		if err := e.flushBatch(); err != nil {
			return err
		}
		return e.advance(m.Watermark)
	}
	e.pending = append(e.pending, m.El)
	return nil
}

// Flush forces out any buffered partial micro-batch (elements received
// since the last watermark). Run calls it after its final message; use it
// directly when feeding Process one message at a time without a trailing
// watermark. A no-op on the serial path.
func (e *Engine) Flush() error {
	if e.parallelism > 1 {
		return e.commit(e.flushBatch())
	}
	return nil
}

// routeKey resolves an element's partition key.
func (e *Engine) routeKey(el *element.Element) string {
	if e.routingKey != nil {
		return e.routingKey(el)
	}
	if el.Tuple != nil && el.Tuple.Schema().Len() > 0 {
		if v, ok := el.Get(el.Tuple.Schema().Field(0).Name); ok {
			return v.String()
		}
	}
	return el.Stream
}

// flushBatch drives one micro-batch through the three-phase pipeline.
// On a rule error the error of the lowest-indexed failing element is
// returned and the batch aborts: unlike a serial run, writes of elements
// after the failing one may already be applied (workers abort
// cooperatively, not instantly) and the batch's emissions and processor
// outputs are not dispatched. Errors end the run; the partial state is
// not specified beyond "every applied write is a prefix-consistent
// per-key sequence".
func (e *Engine) flushBatch() error {
	els := e.pending
	if len(els) == 0 {
		return nil
	}
	e.pending = nil
	e.elements += uint64(len(els))

	// Under the Snapshot policy, an element at the snapshot instant
	// (timestamp == the last watermark) writes at the very transaction
	// time the view is pinned to: serial execution order is observable
	// for it — its gates must not see its own writes, while later
	// elements of the batch must see them. Peel such elements (they can
	// only lead the batch) onto the serial path; every remaining element
	// writes strictly after the pinned view, where physical interleaving
	// is invisible to snapshot reads.
	if e.policy == Snapshot {
		i := 0
		for i < len(els) && els[i].Timestamp <= e.pinned.At() {
			if err := e.processElement(els[i]); err != nil {
				return err
			}
			i++
		}
		els = els[i:]
		if len(els) == 0 {
			return nil
		}
	}

	streamFired := make([][]rules.Fired, len(els))
	if e.ruleSet != nil {
		if err := e.parallelRulePhase(els, streamFired); err != nil {
			return err
		}
	}

	var patternFired [][]rules.Fired
	if e.ruleSet != nil && e.ruleSet.HasPatterns() {
		patternFired = make([][]rules.Fired, len(els))
		for i, el := range els {
			if err := e.ruleSet.ApplyPatterns(el, e.store, &patternFired[i]); err != nil {
				return err
			}
		}
	}

	// Merge each element's emissions into deployment order and number
	// them with one sequence reservation, matching serial assignment.
	total := 0
	for i := range els {
		total += len(streamFired[i])
		if patternFired != nil {
			total += len(patternFired[i])
		}
	}
	var seq uint64
	if e.ruleSet != nil {
		seq = e.ruleSet.TakeSeq(total)
	}
	for i, el := range els {
		derived := streamFired[i]
		if patternFired != nil {
			derived = mergeFired(derived, patternFired[i])
		}
		for _, f := range derived {
			f.El.Seq = seq
			seq++
			e.emitted = append(e.emitted, f.El)
			if e.wmTap {
				e.wmEmitted = append(e.wmEmitted, f.El)
			}
		}
		e.trimEmitted()
		e.dispatchElement(el, derived)
	}
	return nil
}

// parallelRulePhase partitions els by routing key and applies their
// stream-trigger rules on up to e.parallelism workers. streamFired[i]
// receives element i's emissions; only element i's worker writes it.
func (e *Engine) parallelRulePhase(els []*element.Element, streamFired [][]rules.Fired) error {
	nw := e.parallelism
	if nw > len(els) {
		nw = len(els)
	}
	parts := make([][]int, nw)
	for i, el := range els {
		w := int(state.HashString(e.routeKey(el)) % uint64(nw))
		parts[w] = append(parts[w], i)
	}

	errs := make([]error, nw)
	errAt := make([]int, nw)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, idxs []int) {
			defer wg.Done()
			var batch []state.BatchPut
			flush := func() error {
				if len(batch) == 0 {
					return nil
				}
				err := e.store.PutBatch(batch)
				batch = batch[:0]
				return err
			}
			for _, i := range idxs {
				// Cooperative abort: once any worker fails, stop applying
				// further elements to bound the divergence from serial.
				if failed.Load() {
					return
				}
				el := els[i]
				var err error
				if e.ruleSet.StreamPure(el.Stream) {
					err = e.ruleSet.ApplyStreamBatch(el, e.store, &batch, &streamFired[i])
				} else if err = flush(); err == nil {
					err = e.ruleSet.ApplyStream(el, e.store, &streamFired[i])
				}
				if err != nil {
					errs[w], errAt[w] = err, i
					failed.Store(true)
					return
				}
			}
			if err := flush(); err != nil {
				errs[w], errAt[w] = err, idxs[len(idxs)-1]
				failed.Store(true)
			}
		}(w, idxs)
	}
	wg.Wait()

	var firstErr error
	first := len(els)
	for w := range errs {
		if errs[w] != nil && errAt[w] < first {
			first, firstErr = errAt[w], errs[w]
		}
	}
	return firstErr
}

// dispatchElement runs the serial processor phase for one element and its
// derived emissions, at the policy's state-read instants — the same
// per-element switch the serial Process performs.
func (e *Engine) dispatchElement(el *element.Element, derived []rules.Fired) {
	switch e.policy {
	case StateFirst:
		e.processStreams(el, el.Timestamp)
		for _, d := range derived {
			e.processStreams(d.El, d.El.Timestamp)
		}
	case StreamFirst:
		e.processStreams(el, el.Timestamp-1)
		for _, d := range derived {
			e.processStreams(d.El, d.El.Timestamp-1)
		}
	case Snapshot:
		e.processStreams(el, e.pinned.At())
		for _, d := range derived {
			e.processStreams(d.El, e.pinned.At())
		}
	}
}

// mergeFired merges two deployment-ordered emission lists into one, by
// rule index (stable: equal indices cannot occur across the two phases).
func mergeFired(a, b []rules.Fired) []rules.Fired {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]rules.Fired, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].RuleIdx <= b[j].RuleIdx {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
