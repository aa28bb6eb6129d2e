package cql

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
	"repro/internal/window"
)

// TestAggregateIncrementalEqualsRecompute drives the incremental
// aggregation operator with random insert/delete deltas and checks after
// every delta that the maintained result relation equals an aggregate
// recomputed from scratch over the current input multiset.
func TestAggregateIncrementalEqualsRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	products := []string{"a", "b", "c", "d"}

	for trial := 0; trial < 60; trial++ {
		op := NewAggregate([]string{"product"},
			AggSpec{Func: Count, As: "n"},
			AggSpec{Func: Sum, Field: "amount", As: "sum"},
			AggSpec{Func: Min, Field: "amount", As: "lo"},
			AggSpec{Func: Max, Field: "amount", As: "hi"},
		)
		result := NewMultiset()
		input := NewMultiset()

		for step := 0; step < 40; step++ {
			var d Delta
			// Random inserts.
			for i := rng.Intn(4); i > 0; i-- {
				d.Inserts = append(d.Inserts,
					tup(products[rng.Intn(len(products))], float64(rng.Intn(10))))
			}
			// Random deletes of currently present tuples: distinct
			// occurrences, so the delta is well-formed (a delete per
			// multiset occurrence at most).
			cur := input.Tuples()
			rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
			for i := 0; i < rng.Intn(3) && i < len(cur); i++ {
				d.Deletes = append(d.Deletes, cur[i])
			}
			input.Apply(d)
			result.Apply(op.Apply(d))

			want := recomputeAggregate(input.Tuples())
			got := renderRelation(result.Tuples())
			if got != want {
				t.Fatalf("trial %d step %d:\n got %s\nwant %s", trial, step, got, want)
			}
		}
	}
}

// recomputeAggregate computes the expected aggregate rows from scratch.
func recomputeAggregate(tuples []*element.Tuple) string {
	type agg struct {
		n   int
		sum float64
		lo  float64
		hi  float64
	}
	groups := map[string]*agg{}
	for _, tp := range tuples {
		p := tp.MustGet("product").MustString()
		v := tp.MustGet("amount").MustFloat()
		g := groups[p]
		if g == nil {
			g = &agg{lo: v, hi: v}
			groups[p] = g
		} else {
			if v < g.lo {
				g.lo = v
			}
			if v > g.hi {
				g.hi = v
			}
		}
		g.n++
		g.sum += v
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		g := groups[k]
		sb.WriteString(renderRow(k, g.n, g.sum, g.lo, g.hi))
	}
	return sb.String()
}

func renderRelation(tuples []*element.Tuple) string {
	rows := make([]string, 0, len(tuples))
	for _, tp := range tuples {
		rows = append(rows, renderRow(
			tp.MustGet("product").MustString(),
			int(tp.MustGet("n").MustInt()),
			tp.MustGet("sum").MustFloat(),
			tp.MustGet("lo").MustFloat(),
			tp.MustGet("hi").MustFloat()))
	}
	sort.Strings(rows)
	return strings.Join(rows, "")
}

func renderRow(p string, n int, sum, lo, hi float64) string {
	return strings.Join([]string{p,
		element.Int(int64(n)).Key(),
		element.Float(sum).Key(),
		element.Float(lo).Key(),
		element.Float(hi).Key(), "|"}, "/")
}

// TestStreamToRelationPartition checks the windows-partition-the-stream
// property: with tumbling time windows, every element is inserted into
// the relation exactly once across all deltas, and net relation size
// after the final watermark equals the last window's population.
func TestStreamToRelationPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 30 + rng.Intn(30)
		els := make([]*element.Element, n)
		ts := int64(0)
		for i := range els {
			ts += int64(rng.Intn(5))
			els[i] = sale(ts, "p", float64(i)) // distinct amounts → distinct tuples
			els[i].Seq = uint64(i)
		}
		s2r := NewStreamToRelation(window.NewTumblingTime(10), false)
		inserted := map[string]int{}
		apply := func(ds []Delta) {
			for _, d := range ds {
				for _, tp := range d.Inserts {
					inserted[tp.Key()]++
				}
			}
		}
		for _, el := range els {
			apply(s2r.Observe(el))
			apply(s2r.AdvanceTo(el.Timestamp))
		}
		apply(s2r.AdvanceTo(temporal.Instant(ts + 100)))
		if len(inserted) != n {
			t.Fatalf("trial %d: %d distinct tuples inserted, want %d", trial, len(inserted), n)
		}
		for k, c := range inserted {
			if c != 1 {
				t.Fatalf("trial %d: tuple %q inserted %d times (windows must partition)", trial, k, c)
			}
		}
	}
}
