// Query planning: Prepare compiles a parsed query into a Prepared handle
// whose physical plan is computed exactly once — conjuncts of the WHERE
// clause that reference only the row itself are pushed below the
// partitioned gather (they run inside the scan workers, before any row
// reaches the single-threaded executor), and numeric range predicates
// over the `value` pseudo-column additionally compile into a
// state.ValueBounds the scan resolves against each lineage's published
// value envelope, skipping lineages that cannot match.
//
// The split is semantics-preserving for every query that evaluates
// without error: AND distributes over the conjuncts, and a pushed
// conjunct sees the same rowEnv bindings below the gather as it would
// above it. The one observable difference is error ordering — WHERE
// conjuncts normally evaluate left-to-right with short-circuiting, while
// the pushed subset runs first; a query whose WHERE errors only on rows
// another conjunct would have filtered may report an error in one mode
// and not the other. Predicates that reach outside the row (state
// lookups, EXISTS) are never pushed, so pushed evaluation never touches
// the store.

package query

import (
	"runtime"
	"strconv"
	"strings"

	"repro/internal/lang"
	"repro/internal/state"
)

// Prepared is a query parsed and planned once, executable many times.
// Construct with Prepare; execute with Exec. A Prepared is immutable
// after construction and safe for concurrent Exec calls.
type Prepared struct {
	q   *Query
	src string

	// pushed are the WHERE conjuncts evaluated below the partitioned
	// gather; residual is the remainder (nil when fully pushed). The
	// serial fallback ignores the split and evaluates q.Where whole.
	pushed   []lang.Expr
	residual lang.Expr
	bounds   state.ValueBounds

	plan *Plan
}

// Plan is the physical execution plan of a prepared query, as reported
// by Explain. It is computed at Prepare time; per-execution numbers
// (lineages scanned, lineages pruned, partitions used) live in
// state.ScanStats, returned by the scan itself.
type Plan struct {
	// Source is the query text the plan was compiled from.
	Source string `json:"source"`
	// Attribute is the scanned attribute; "*" scans every attribute.
	Attribute string `json:"attribute"`
	// Temporal names the temporal qualifier: current, asof, during, or
	// history.
	Temporal string `json:"temporal"`
	// SystemTime reports a SYSTEM TIME ASOF clause (or a per-execution
	// override slot; the clause value itself is evaluated per call).
	SystemTime bool `json:"system_time"`
	// Partitions is the default gather parallelism (GOMAXPROCS at plan
	// time); executions may override it, and small scans degrade to one
	// partition regardless.
	Partitions int `json:"partitions"`
	// AttributeIndex reports that the scan walks the per-shard attribute
	// directory instead of every lineage.
	AttributeIndex bool `json:"attribute_index"`
	// PushedPredicates are the WHERE conjuncts evaluated inside the
	// gather workers, in evaluation order.
	PushedPredicates []string `json:"pushed_predicates,omitempty"`
	// ResidualPredicate is the WHERE remainder evaluated above the
	// gather; empty when the whole clause was pushed.
	ResidualPredicate string `json:"residual_predicate,omitempty"`
	// ValueBounds renders the numeric envelope constraint used to skip
	// lineages, e.g. "10 < value <= 20"; empty when no range predicate
	// over `value` was pushed.
	ValueBounds string `json:"value_bounds,omitempty"`
	// EnvelopePruning reports that the scan skips lineages (and, on
	// durable backends, whole segments) whose envelopes cannot overlap
	// the query — true whenever ValueBounds is set or the temporal shape
	// constrains validity/belief.
	EnvelopePruning bool `json:"envelope_pruning"`
	// Inference reports a WITH INFERENCE clause; derived facts join the
	// scanned set above the gather and are filtered by the full WHERE.
	Inference bool `json:"inference,omitempty"`
}

// Prepare parses src and compiles its physical plan. The returned
// Prepared re-executes without re-parsing or re-planning.
func Prepare(src string) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return newPrepared(q, src), nil
}

func newPrepared(q *Query, src string) *Prepared {
	p := &Prepared{q: q, src: src}
	var resid []lang.Expr
	for _, c := range conjuncts(q.Where, nil) {
		if pushable(c) {
			p.pushed = append(p.pushed, c)
		} else {
			resid = append(resid, c)
		}
	}
	p.residual = conjoin(resid)
	p.bounds = extractBounds(p.pushed)
	p.plan = p.buildPlan()
	return p
}

// Explain returns the physical plan. The plan is computed at Prepare
// time and cached; callers must not mutate it.
func (p *Prepared) Explain() *Plan { return p.plan }

func (p *Prepared) buildPlan() *Plan {
	pl := &Plan{
		Source:         p.src,
		Attribute:      p.q.Attr,
		Temporal:       temporalName(p.q.Temporal),
		SystemTime:     p.q.SysTime != nil,
		Partitions:     runtime.GOMAXPROCS(0),
		AttributeIndex: p.q.Attr != "*",
		Inference:      p.q.Inference,
	}
	for _, c := range p.pushed {
		pl.PushedPredicates = append(pl.PushedPredicates, c.String())
	}
	if p.residual != nil {
		pl.ResidualPredicate = p.residual.String()
	}
	if p.bounds.Constrained() {
		pl.ValueBounds = boundsString(p.bounds)
	}
	// Value bounds prune lineage envelopes; any non-History temporal
	// shape prunes durable segment envelopes on fall-through scans.
	pl.EnvelopePruning = p.bounds.Constrained() || p.q.Temporal != History
	return pl
}

func temporalName(k TemporalKind) string {
	switch k {
	case AsOf:
		return "asof"
	case During:
		return "during"
	case History:
		return "history"
	}
	return "current"
}

// boundsString renders bounds as a chained comparison over `value`.
func boundsString(b state.ValueBounds) string {
	var sb strings.Builder
	if b.HasMin {
		sb.WriteString(strconv.FormatFloat(b.Min, 'g', -1, 64))
		if b.MinExcl {
			sb.WriteString(" < ")
		} else {
			sb.WriteString(" <= ")
		}
	}
	sb.WriteString("value")
	if b.HasMax {
		if b.MaxExcl {
			sb.WriteString(" < ")
		} else {
			sb.WriteString(" <= ")
		}
		sb.WriteString(strconv.FormatFloat(b.Max, 'g', -1, 64))
	}
	return sb.String()
}

// conjuncts flattens nested ANDs into their conjunct list, preserving
// left-to-right evaluation order. A nil expression yields none.
func conjuncts(e lang.Expr, out []lang.Expr) []lang.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*lang.Binary); ok && b.Op == "and" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// conjoin rebuilds an AND chain from a conjunct list; nil when empty.
func conjoin(es []lang.Expr) lang.Expr {
	if len(es) == 0 {
		return nil
	}
	e := es[0]
	for _, r := range es[1:] {
		e = &lang.Binary{Op: "and", L: e, R: r}
	}
	return e
}

// pushable reports whether a conjunct may evaluate inside a gather
// worker: it must read only the row itself — literals, durations,
// pseudo-column references, operators, and builtin calls. State lookups
// (attr(entity)), EXISTS, field accesses, and non-pseudo-column
// variables stay above the gather.
func pushable(e lang.Expr) bool {
	switch x := e.(type) {
	case *lang.Lit, *lang.Duration:
		return true
	case *lang.VarRef:
		return pseudoColumns[x.Name]
	case *lang.Unary:
		return pushable(x.X)
	case *lang.Binary:
		return pushable(x.L) && pushable(x.R)
	case *lang.Call:
		if !lang.Builtins[x.Name] {
			return false
		}
		for _, a := range x.Args {
			if !pushable(a) {
				return false
			}
		}
		return true
	}
	return false
}

// extractBounds compiles pushed conjuncts of the shape
// `value <cmp> <numeric literal>` (either operand order) into the
// tightest combined ValueBounds. The conjuncts stay pushed — the bounds
// are an additional lineage-level prune, not a replacement filter.
func extractBounds(pushed []lang.Expr) state.ValueBounds {
	var b state.ValueBounds
	for _, c := range pushed {
		bin, ok := c.(*lang.Binary)
		if !ok {
			continue
		}
		op := bin.Op
		f, ok := boundOperands(bin.L, bin.R)
		if !ok {
			// Literal on the left: `10 < value` is `value > 10`.
			if f, ok = boundOperands(bin.R, bin.L); !ok {
				continue
			}
			op = flipCmp(op)
		}
		switch op {
		case "=":
			tightenMin(&b, f, false)
			tightenMax(&b, f, false)
		case ">":
			tightenMin(&b, f, true)
		case ">=":
			tightenMin(&b, f, false)
		case "<":
			tightenMax(&b, f, true)
		case "<=":
			tightenMax(&b, f, false)
		}
	}
	return b
}

// tightenMin raises the lower bound if (f, excl) is stricter.
func tightenMin(b *state.ValueBounds, f float64, excl bool) {
	if !b.HasMin || f > b.Min || (f == b.Min && excl && !b.MinExcl) {
		b.Min, b.HasMin, b.MinExcl = f, true, excl
	}
}

// tightenMax lowers the upper bound if (f, excl) is stricter.
func tightenMax(b *state.ValueBounds, f float64, excl bool) {
	if !b.HasMax || f < b.Max || (f == b.Max && excl && !b.MaxExcl) {
		b.Max, b.HasMax, b.MaxExcl = f, true, excl
	}
}

// boundOperands matches (VarRef("value"), numeric Lit) and returns the
// literal as a float.
func boundOperands(l, r lang.Expr) (float64, bool) {
	v, ok := l.(*lang.VarRef)
	if !ok || v.Name != "value" {
		return 0, false
	}
	lit, ok := r.(*lang.Lit)
	if !ok {
		return 0, false
	}
	return lit.Value.AsFloat()
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // "=" and anything unrecognized are symmetric or ignored
}
