package cql

import (
	"testing"

	"repro/internal/element"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/window"
)

var saleSchema = element.NewSchema(
	element.Field{Name: "product", Kind: element.KindString},
	element.Field{Name: "amount", Kind: element.KindFloat},
)

func sale(ts int64, product string, amount float64) *element.Element {
	e := element.New("Sale", temporal.Instant(ts),
		element.NewTuple(saleSchema, element.String(product), element.Float(amount)))
	e.Seq = uint64(ts)
	return e
}

func tup(product string, amount float64) *element.Tuple {
	return element.NewTuple(saleSchema, element.String(product), element.Float(amount))
}

// count is t's multiplicity in m.
func count(m *Multiset, t *element.Tuple) int {
	n := 0
	for _, u := range m.Tuples() {
		if u.Key() == t.Key() {
			n++
		}
	}
	return n
}

func TestMultisetBasics(t *testing.T) {
	m := NewMultiset()
	a := tup("a", 1)
	m.Add(a)
	m.Add(a)
	m.Add(tup("b", 2))
	if m.Len() != 3 || count(m, a) != 2 {
		t.Fatalf("len=%d count=%d", m.Len(), count(m, a))
	}
	if !m.Remove(a) || count(m, a) != 1 {
		t.Error("remove")
	}
	if m.Remove(tup("zzz", 0)) {
		t.Error("removing absent tuple should report false")
	}
	ts := m.Tuples()
	if len(ts) != 2 {
		t.Fatalf("tuples: %v", ts)
	}
}

func TestMultisetDiffToDelta(t *testing.T) {
	m := NewMultiset()
	a, b, c := tup("a", 1), tup("b", 2), tup("c", 3)
	d := m.DiffToDelta([]*element.Tuple{a, b}, 10)
	if len(d.Inserts) != 2 || len(d.Deletes) != 0 || d.At != 10 {
		t.Fatalf("initial diff: %+v", d)
	}
	d = m.DiffToDelta([]*element.Tuple{b, c, c}, 20)
	if len(d.Inserts) != 2 || len(d.Deletes) != 1 {
		t.Fatalf("second diff: ins=%d del=%d", len(d.Inserts), len(d.Deletes))
	}
	if m.Len() != 3 || count(m, c) != 2 || count(m, a) != 0 {
		t.Fatalf("after diff: len=%d", m.Len())
	}
	d = m.DiffToDelta(nil, 30)
	if len(d.Deletes) != 3 || m.Len() != 0 {
		t.Fatalf("clearing diff: %+v", d)
	}
}

func TestAggregateCountSum(t *testing.T) {
	op := NewAggregate([]string{"product"},
		AggSpec{Func: Count, As: "n"},
		AggSpec{Func: Sum, Field: "amount", As: "total"},
	)
	d := op.Apply(Delta{Inserts: []*element.Tuple{tup("a", 1), tup("a", 2), tup("b", 5)}})
	if len(d.Inserts) != 2 || len(d.Deletes) != 0 {
		t.Fatalf("first agg: %+v", d)
	}
	// groups sorted by key: a then b
	if d.Inserts[0].MustGet("n").MustInt() != 2 || d.Inserts[0].MustGet("total").MustFloat() != 3 {
		t.Fatalf("group a: %v", d.Inserts[0])
	}
	// Incremental update: delete one 'a' sale.
	d = op.Apply(Delta{Deletes: []*element.Tuple{tup("a", 1)}})
	if len(d.Deletes) != 1 || len(d.Inserts) != 1 {
		t.Fatalf("update agg: %+v", d)
	}
	if d.Inserts[0].MustGet("n").MustInt() != 1 || d.Inserts[0].MustGet("total").MustFloat() != 2 {
		t.Fatalf("updated group a: %v", d.Inserts[0])
	}
	// Remove remaining a: group disappears (delete only).
	d = op.Apply(Delta{Deletes: []*element.Tuple{tup("a", 2)}})
	if len(d.Deletes) != 1 || len(d.Inserts) != 0 {
		t.Fatalf("group vanish: %+v", d)
	}
}

func TestAggregateAvgMinMax(t *testing.T) {
	op := NewAggregate(nil,
		AggSpec{Func: Avg, Field: "amount", As: "avg"},
		AggSpec{Func: Min, Field: "amount", As: "lo"},
		AggSpec{Func: Max, Field: "amount", As: "hi"},
	)
	d := op.Apply(Delta{Inserts: []*element.Tuple{tup("a", 1), tup("b", 2), tup("c", 6)}})
	if len(d.Inserts) != 1 {
		t.Fatalf("agg: %+v", d)
	}
	r := d.Inserts[0]
	if r.MustGet("avg").MustFloat() != 3 || r.MustGet("lo").MustFloat() != 1 || r.MustGet("hi").MustFloat() != 6 {
		t.Fatalf("agg values: %v", r)
	}
	// Deleting the max forces min/max recomputation.
	d = op.Apply(Delta{Deletes: []*element.Tuple{tup("c", 6)}})
	r = d.Inserts[0]
	if r.MustGet("hi").MustFloat() != 2 || r.MustGet("lo").MustFloat() != 1 || r.MustGet("avg").MustFloat() != 1.5 {
		t.Fatalf("after delete: %v", r)
	}
}

func TestAggregateDeleteUnknownGroupIgnored(t *testing.T) {
	op := NewAggregate([]string{"product"}, AggSpec{Func: Count, As: "n"})
	d := op.Apply(Delta{Deletes: []*element.Tuple{tup("ghost", 1)}})
	if !d.IsEmpty() {
		t.Fatalf("ghost delete: %+v", d)
	}
}

func TestChainShortCircuit(t *testing.T) {
	sel := relOpFunc(func(d Delta) Delta { return Delta{At: d.At} })
	calls := 0
	probe := relOpFunc(func(d Delta) Delta { calls++; return d })
	c := NewChain(sel, probe)
	c.Apply(Delta{Inserts: []*element.Tuple{tup("a", 1)}})
	if calls != 0 {
		t.Error("chain should stop on empty delta")
	}
}

type relOpFunc func(Delta) Delta

func (f relOpFunc) Apply(d Delta) Delta { return f(d) }

func TestQueryIStreamTumblingAggregate(t *testing.T) {
	// Per-product sales totals over 10-unit tumbling windows (the paper's
	// §3.1 "current trend of sales" query).
	q := NewQuery("Trend", "Sale", window.NewTumblingTime(10), false, IStream,
		NewAggregate([]string{"product"},
			AggSpec{Func: Sum, Field: "amount", As: "total"}),
	)
	els := []*element.Element{
		sale(1, "a", 5), sale(3, "b", 2), sale(7, "a", 1), // window [0,10)
		sale(12, "a", 10), // window [10,20)
	}
	var got []*element.Element
	for _, e := range els {
		for _, m := range q.Process(stream.ElementMsg(e)) {
			if !m.IsWatermark {
				got = append(got, m.El)
			}
		}
	}
	for _, m := range q.Process(stream.WatermarkMsg(20)) {
		if !m.IsWatermark {
			got = append(got, m.El)
		}
	}
	// Window [0,10) emits totals a=6, b=2; window [10,20) replaces the
	// relation: new inserts a=10 (b gone → only delete, not in IStream).
	if len(got) != 3 {
		t.Fatalf("emissions: %v", got)
	}
	if got[0].MustGet("total").MustFloat() != 6 || got[0].MustGet("product").MustString() != "a" {
		t.Fatalf("first: %v", got[0])
	}
	if got[2].MustGet("total").MustFloat() != 10 {
		t.Fatalf("third: %v", got[2])
	}
	if got[0].Stream != "Trend" || got[0].Timestamp != 10 {
		t.Fatalf("metadata: %v", got[0])
	}
}

func TestQueryDStreamAndRStream(t *testing.T) {
	mk := func(mode EmitMode) *Query {
		return NewQuery("Q", "", window.NewTumblingTime(10), false, mode)
	}
	drive := func(q *Query) (els []*element.Element) {
		msgs := []stream.Message{
			stream.ElementMsg(sale(1, "a", 1)),
			stream.WatermarkMsg(10),
			stream.ElementMsg(sale(11, "b", 2)),
			stream.WatermarkMsg(20),
			stream.WatermarkMsg(30),
		}
		for _, m := range msgs {
			for _, o := range q.Process(m) {
				if !o.IsWatermark {
					els = append(els, o.El)
				}
			}
		}
		return els
	}
	d := drive(mk(DStream))
	// 'a' leaves the relation at 20 (window replacement), 'b' at 30.
	if len(d) != 2 || d[0].MustGet("product").MustString() != "a" || d[0].Timestamp != 20 {
		t.Fatalf("dstream: %v", d)
	}
	r := drive(mk(RStream))
	// RStream emits the full relation whenever it changes: at 10 ({a}),
	// at 20 ({b}); at 30 the relation empties (change but nothing to emit).
	if len(r) != 2 || r[0].MustGet("product").MustString() != "a" || r[1].MustGet("product").MustString() != "b" {
		t.Fatalf("rstream: %v", r)
	}
}

func TestQuerySourceFilterAndPending(t *testing.T) {
	q := NewQuery("Q", "Sale", window.NewTumblingTime(10), false, IStream)
	other := element.New("Other", 1, tup("x", 1))
	if out := q.Process(stream.ElementMsg(other)); out != nil {
		t.Error("foreign stream elements should be ignored")
	}
	q.Process(stream.ElementMsg(sale(1, "a", 1)))
	if q.s2r.w.Pending() != 1 {
		t.Errorf("pending: %d", q.s2r.w.Pending())
	}
	msgs := q.Process(stream.WatermarkMsg(10))
	if len(msgs) == 0 || !msgs[len(msgs)-1].IsWatermark {
		t.Error("watermark should propagate")
	}
	if len(q.result.Tuples()) != 1 {
		t.Errorf("result relation: %v", q.result.Tuples())
	}
}

func TestQueryKeyedSessionBatches(t *testing.T) {
	// Session windows as batch semantics: each session aggregates alone.
	key := func(e *element.Element) string { return e.MustGet("product").MustString() }
	q := NewQuery("Sessions", "Sale", window.NewSession(5, key), true, IStream,
		NewAggregate([]string{"product"}, AggSpec{Func: Count, As: "events"}),
	)
	els := []*element.Element{
		sale(0, "u1", 1), sale(2, "u1", 1), sale(3, "u2", 1), sale(20, "u1", 1),
	}
	var got []*element.Element
	for _, e := range els {
		for _, m := range q.Process(stream.ElementMsg(e)) {
			if !m.IsWatermark {
				got = append(got, m.El)
			}
		}
	}
	for _, m := range q.Process(stream.WatermarkMsg(100)) {
		if !m.IsWatermark {
			got = append(got, m.El)
		}
	}
	// Sessions: u1 [0,2] (2 events), u2 [3] (1), u1 [20] (1).
	if len(got) != 3 {
		t.Fatalf("session emissions: %v", got)
	}
	if got[0].MustGet("events").MustInt() != 2 {
		t.Fatalf("first session: %v", got[0])
	}
}

func TestEmitModeStrings(t *testing.T) {
	if IStream.String() != "istream" || DStream.String() != "dstream" || RStream.String() != "rstream" {
		t.Error("emit mode strings")
	}
	if Count.String() != "count" || Max.String() != "max" {
		t.Error("agg strings")
	}
}
