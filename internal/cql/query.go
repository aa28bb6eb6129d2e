package cql

import (
	"repro/internal/element"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/window"
)

// EmitMode selects the relation-to-stream operator of a query.
type EmitMode int

// CQL relation-to-stream operators.
const (
	// IStream emits each tuple when it enters the result relation.
	IStream EmitMode = iota
	// DStream emits each tuple when it leaves the result relation.
	DStream
	// RStream emits the entire result relation at every change instant.
	RStream
)

// String names the emit mode.
func (m EmitMode) String() string {
	switch m {
	case IStream:
		return "istream"
	case DStream:
		return "dstream"
	}
	return "rstream"
}

// StreamToRelation converts the panes of a windower into relation deltas:
// each pane replaces the previous window content. Keyed windowers
// (sessions, predicate windows) contribute each pane as a standalone batch
// of insertions followed by deletions at the same instant — a session's
// tuples enter and leave the relation when the session closes, which makes
// downstream aggregation see exactly one session at a time.
type StreamToRelation struct {
	w       window.Windower
	current *Multiset
	keyed   bool
}

// NewStreamToRelation wraps a windower. Set keyed for windowers that emit
// per-key panes (sessions, predicate windows) so panes are treated as
// independent batches rather than snapshots of one global window.
func NewStreamToRelation(w window.Windower, keyed bool) *StreamToRelation {
	return &StreamToRelation{w: w, current: NewMultiset(), keyed: keyed}
}

// Observe feeds an element, returning deltas for any panes that closed.
func (s *StreamToRelation) Observe(el *element.Element) []Delta {
	return s.panesToDeltas(s.w.Observe(el))
}

// AdvanceTo advances the watermark, returning deltas for closed panes.
func (s *StreamToRelation) AdvanceTo(wm temporal.Instant) []Delta {
	return s.panesToDeltas(s.w.AdvanceTo(wm))
}

func (s *StreamToRelation) panesToDeltas(panes []window.Pane) []Delta {
	if len(panes) == 0 {
		return nil
	}
	out := make([]Delta, 0, len(panes))
	for _, p := range panes {
		tuples := make([]*element.Tuple, len(p.Elements))
		for i, el := range p.Elements {
			tuples[i] = el.Tuple
		}
		if s.keyed {
			// Batch semantics: insert the pane, then delete it at the same
			// instant so the relation returns to empty between panes.
			d := Delta{At: p.Window.End, Inserts: tuples, Deletes: nil}
			out = append(out, d, Delta{At: p.Window.End, Deletes: tuples})
			continue
		}
		out = append(out, s.current.DiffToDelta(tuples, p.Window.End))
	}
	return out
}

// Query is one continuous CQL query: stream → window → relational chain →
// stream. It implements stream.Operator so it can sit in a pipeline or be
// driven by the engine.
type Query struct {
	// Name labels output elements' Stream field.
	Name string
	// Source selects which input stream the query consumes; empty consumes
	// every element.
	Source string

	s2r   *StreamToRelation
	chain *Chain
	mode  EmitMode
	// result holds the post-chain relation, needed for RStream.
	result *Multiset
	seq    uint64
}

// NewQuery builds a continuous query over the given windower.
func NewQuery(name, source string, w window.Windower, keyed bool, mode EmitMode, ops ...RelOp) *Query {
	return &Query{
		Name:   name,
		Source: source,
		s2r:    NewStreamToRelation(w, keyed),
		chain:  NewChain(ops...),
		mode:   mode,
		result: NewMultiset(),
	}
}

// Process implements stream.Operator: elements feed the window, watermarks
// advance it, and emitted deltas become output elements per the emit mode.
func (q *Query) Process(m stream.Message) []stream.Message {
	var deltas []Delta
	if m.IsWatermark {
		deltas = q.s2r.AdvanceTo(m.Watermark)
	} else {
		if q.Source != "" && m.El.Stream != q.Source {
			return nil
		}
		deltas = q.s2r.Observe(m.El)
	}
	var out []stream.Message
	for _, d := range deltas {
		res := q.chain.Apply(d)
		q.result.Apply(res)
		switch q.mode {
		case IStream:
			for _, t := range res.Inserts {
				out = append(out, q.emit(t, res.At))
			}
		case DStream:
			for _, t := range res.Deletes {
				out = append(out, q.emit(t, res.At))
			}
		case RStream:
			if !res.IsEmpty() {
				for _, t := range q.result.Tuples() {
					out = append(out, q.emit(t, res.At))
				}
			}
		}
	}
	if m.IsWatermark {
		out = append(out, m)
	}
	return out
}

func (q *Query) emit(t *element.Tuple, at temporal.Instant) stream.Message {
	el := element.New(q.Name, at, t)
	el.Seq = q.seq
	q.seq++
	return stream.ElementMsg(el)
}
