package cql

import (
	"fmt"
	"sort"

	"repro/internal/element"
)

// RelOp is an incremental relation-to-relation operator: it maps input
// deltas to output deltas while maintaining whatever internal state the
// operator needs. Operators are driven single-threaded.
type RelOp interface {
	Apply(d Delta) Delta
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

var aggNames = [...]string{Count: "count", Sum: "sum", Avg: "avg", Min: "min", Max: "max"}

// String names the function.
func (f AggFunc) String() string {
	if int(f) < len(aggNames) {
		return aggNames[f]
	}
	return fmt.Sprintf("agg(%d)", int(f))
}

// AggSpec is one aggregate column: Func applied to Field, emitted as As.
// Count ignores Field.
type AggSpec struct {
	Func  AggFunc
	Field string
	As    string
}

// AggregateOp maintains grouped aggregates incrementally. For every input
// delta it emits the retraction of each changed group's previous aggregate
// tuple and the insertion of the new one — the standard incremental
// view-maintenance contract.
type AggregateOp struct {
	groupBy []string
	specs   []AggSpec
	groups  map[string]*groupState
	schema  *element.Schema
}

type groupState struct {
	keyVals []element.Value
	n       int
	sums    []float64
	// values tracks multiplicity per value key for Min/Max recomputation
	// under deletion; one map per spec (nil for non-min/max specs).
	values []map[string]*valEntry
	last   *element.Tuple // previously emitted aggregate tuple
}

type valEntry struct {
	v element.Value
	n int
}

// NewAggregate returns an aggregation operator grouping by the given
// fields. At least one spec is required; spec output names must be unique
// and disjoint from the group-by fields.
func NewAggregate(groupBy []string, specs ...AggSpec) *AggregateOp {
	if len(specs) == 0 {
		panic("cql: aggregate needs at least one spec")
	}
	return &AggregateOp{groupBy: groupBy, specs: specs, groups: make(map[string]*groupState)}
}

// Apply implements RelOp.
func (o *AggregateOp) Apply(d Delta) Delta {
	changed := make(map[string]bool)
	for _, t := range d.Deletes {
		o.update(t, -1, changed)
	}
	for _, t := range d.Inserts {
		o.update(t, +1, changed)
	}
	keys := make([]string, 0, len(changed))
	for k := range changed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := Delta{At: d.At}
	for _, k := range keys {
		g := o.groups[k]
		if g == nil {
			continue // group vanished and was never emitted
		}
		if g.last != nil {
			out.Deletes = append(out.Deletes, g.last)
		}
		if g.n == 0 {
			delete(o.groups, k)
			continue
		}
		nt := o.aggTuple(g)
		g.last = nt
		out.Inserts = append(out.Inserts, nt)
	}
	return out
}

func (o *AggregateOp) update(t *element.Tuple, sign int, changed map[string]bool) {
	keyVals := make([]element.Value, len(o.groupBy))
	keyParts := make([]string, len(o.groupBy))
	for i, f := range o.groupBy {
		keyVals[i] = t.MustGet(f)
		keyParts[i] = keyVals[i].Key()
	}
	k := joinKey(keyParts)
	g := o.groups[k]
	if g == nil {
		if sign < 0 {
			return // deleting from a non-existent group: ignore
		}
		g = &groupState{
			keyVals: keyVals,
			sums:    make([]float64, len(o.specs)),
			values:  make([]map[string]*valEntry, len(o.specs)),
		}
		for i, sp := range o.specs {
			if sp.Func == Min || sp.Func == Max {
				g.values[i] = make(map[string]*valEntry)
			}
		}
		o.groups[k] = g
	}
	g.n += sign
	for i, sp := range o.specs {
		switch sp.Func {
		case Count:
			// handled by g.n
		case Sum, Avg:
			f, ok := t.MustGet(sp.Field).AsFloat()
			if ok {
				g.sums[i] += float64(sign) * f
			}
		case Min, Max:
			v := t.MustGet(sp.Field)
			vk := v.Key()
			e := g.values[i][vk]
			if e == nil {
				e = &valEntry{v: v}
				g.values[i][vk] = e
			}
			e.n += sign
			if e.n <= 0 {
				delete(g.values[i], vk)
			}
		}
	}
	changed[k] = true
}

func (o *AggregateOp) aggTuple(g *groupState) *element.Tuple {
	vals := make([]element.Value, 0, len(o.groupBy)+len(o.specs))
	vals = append(vals, g.keyVals...)
	for i, sp := range o.specs {
		switch sp.Func {
		case Count:
			vals = append(vals, element.Int(int64(g.n)))
		case Sum:
			vals = append(vals, element.Float(g.sums[i]))
		case Avg:
			vals = append(vals, element.Float(g.sums[i]/float64(g.n)))
		case Min, Max:
			var best element.Value
			first := true
			for _, e := range g.values[i] {
				if first {
					best = e.v
					first = false
					continue
				}
				c := e.v.Compare(best)
				if (sp.Func == Min && c < 0) || (sp.Func == Max && c > 0) {
					best = e.v
				}
			}
			vals = append(vals, best)
		}
	}
	if o.schema == nil {
		fields := make([]element.Field, 0, len(vals))
		for i, f := range o.groupBy {
			fields = append(fields, element.Field{Name: f, Kind: g.keyVals[i].Kind()})
		}
		for i, sp := range o.specs {
			fields = append(fields, element.Field{Name: sp.As, Kind: vals[len(o.groupBy)+i].Kind()})
		}
		o.schema = element.NewSchema(fields...)
	}
	return element.NewTuple(o.schema, vals...)
}

func joinKey(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "\x1f"
		}
		s += p
	}
	return s
}

// Chain composes unary operators into one RelOp.
type Chain struct {
	Ops []RelOp
}

// NewChain composes the given operators.
func NewChain(ops ...RelOp) *Chain { return &Chain{Ops: ops} }

// Apply implements RelOp.
func (c *Chain) Apply(d Delta) Delta {
	for _, op := range c.Ops {
		if d.IsEmpty() {
			return d
		}
		d = op.Apply(d)
	}
	return d
}
