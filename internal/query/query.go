// Package query implements the on-demand temporal query language over the
// state repository — the "queryable state" benefit of §3.2: "the proposed
// model enables the users to query the state on-demand, potentially
// referring to historical data".
//
// The language is a small SELECT dialect with temporal qualifiers:
//
//	SELECT entity, value FROM position                      -- current state
//	SELECT entity, value FROM position ASOF 1m              -- point in time
//	SELECT * FROM position DURING 10s TO 1m                 -- interval
//	SELECT entity, value, start, end FROM position HISTORY  -- all versions
//	SELECT value, count(*) FROM position GROUP BY value
//	SELECT entity FROM type WHERE value = 'books' WITH INFERENCE
//
// The store is bitemporal, and the dialect exposes the transaction-time
// axis through a SYSTEM TIME clause composable with every qualifier
// above: SYSTEM TIME ASOF tt evaluates the query against the belief the
// store held at transaction time tt, making retroactive corrections
// recorded after tt invisible. So
//
//	SELECT entity, value FROM position ASOF 1m SYSTEM TIME ASOF 30s
//
// answers "what did we believe at 30s about the position at 1m".
//
// Every fact version contributes a row with the pseudo-columns entity,
// attribute, value, start, and end, plus the transaction-time columns
// recorded (when the version entered the store) and superseded (when a
// correction revised it out of the belief; +inf while believed).
// WITH INFERENCE adds reasoner-derived facts to the scanned set
// (Figure 1's reasoning component augmenting one-time queries); derived
// facts are materialized in the current belief and are unaffected by
// SYSTEM TIME.
package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/temporal"
)

// TemporalKind selects which fact versions a query scans.
type TemporalKind int

// Temporal qualifiers.
const (
	// Current scans open versions only (the default).
	Current TemporalKind = iota
	// AsOf scans versions valid at one instant.
	AsOf
	// During scans versions overlapping an interval.
	During
	// History scans every version.
	History
)

// Col is one output column: a pseudo-column name or an aggregate.
type Col struct {
	// Name is the pseudo-column (entity, attribute, value, start, end)
	// when Agg is empty.
	Name string
	// Agg is the aggregate function name (count, sum, avg, min, max);
	// empty for plain columns. count uses Name "*".
	Agg string
}

// Label returns the column's output header.
func (c Col) Label() string {
	if c.Agg == "" {
		return c.Name
	}
	return c.Agg + "(" + c.Name + ")"
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  string
	Desc bool
}

// Query is a parsed query.
type Query struct {
	Cols      []Col
	Attr      string // "*" scans every attribute
	Temporal  TemporalKind
	At        lang.Expr // AsOf instant
	FromT     lang.Expr // During bounds
	ToT       lang.Expr
	SysTime   lang.Expr // SYSTEM TIME ASOF instant; nil = current belief
	Where     lang.Expr
	Inference bool
	GroupBy   []string
	OrderBy   []OrderKey
	Limit     int // 0 = unlimited
}

// String renders the query in re-parseable syntax.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	parts := make([]string, len(q.Cols))
	for i, c := range q.Cols {
		parts[i] = c.Label()
	}
	sb.WriteString(strings.Join(parts, ", "))
	sb.WriteString(" FROM " + q.Attr)
	switch q.Temporal {
	case AsOf:
		sb.WriteString(" ASOF " + q.At.String())
	case During:
		sb.WriteString(" DURING " + q.FromT.String() + " TO " + q.ToT.String())
	case History:
		sb.WriteString(" HISTORY")
	}
	if q.SysTime != nil {
		sb.WriteString(" SYSTEM TIME ASOF " + q.SysTime.String())
	}
	if q.Where != nil {
		sb.WriteString(" WHERE " + q.Where.String())
	}
	if q.Inference {
		sb.WriteString(" WITH INFERENCE")
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	if len(q.OrderBy) > 0 {
		keys := make([]string, len(q.OrderBy))
		for i, k := range q.OrderBy {
			keys[i] = k.Col
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if q.Limit > 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", q.Limit))
	}
	return sb.String()
}

// Result is a query's output table.
type Result struct {
	Columns []string
	Rows    [][]element.Value
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var pseudoColumns = map[string]bool{
	"entity": true, "attribute": true, "value": true, "start": true, "end": true,
	"recorded": true, "superseded": true,
}

var aggFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// Parse parses a query.
func Parse(src string) (*Query, error) {
	toks, err := lang.Lex(src)
	if err != nil {
		return nil, err
	}
	c := lang.NewCursor(toks)
	q, err := parseQuery(c)
	if err != nil {
		return nil, err
	}
	if c.Peek().Kind != lang.TokEOF {
		return nil, fmt.Errorf("query: unexpected input after query")
	}
	return q, nil
}

func parseQuery(c *lang.Cursor) (*Query, error) {
	if err := c.ExpectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	if _, ok := c.Accept(lang.TokStar); ok {
		q.Cols = []Col{{Name: "entity"}, {Name: "attribute"}, {Name: "value"}, {Name: "start"}, {Name: "end"}}
	} else {
		for {
			col, err := parseCol(c)
			if err != nil {
				return nil, err
			}
			q.Cols = append(q.Cols, col)
			if _, ok := c.Accept(lang.TokComma); !ok {
				break
			}
		}
	}
	if err := c.ExpectKeyword("from"); err != nil {
		return nil, err
	}
	if _, ok := c.Accept(lang.TokStar); ok {
		q.Attr = "*"
	} else {
		attr, err := c.Expect(lang.TokIdent)
		if err != nil {
			return nil, err
		}
		q.Attr = attr.Text
	}
	var err error
	switch {
	case c.AcceptKeyword("asof"):
		q.Temporal = AsOf
		if q.At, err = lang.ParseExprFrom(c); err != nil {
			return nil, err
		}
	case c.AcceptKeyword("during"):
		q.Temporal = During
		if q.FromT, err = lang.ParseExprFrom(c); err != nil {
			return nil, err
		}
		if err := c.ExpectKeyword("to"); err != nil {
			return nil, err
		}
		if q.ToT, err = lang.ParseExprFrom(c); err != nil {
			return nil, err
		}
	case c.AcceptKeyword("history"):
		q.Temporal = History
	case c.AcceptKeyword("current"):
		q.Temporal = Current
	}
	if c.AcceptKeyword("system") {
		if err := c.ExpectKeyword("time"); err != nil {
			return nil, err
		}
		if err := c.ExpectKeyword("asof"); err != nil {
			return nil, err
		}
		if q.SysTime, err = lang.ParseExprFrom(c); err != nil {
			return nil, err
		}
	}
	if c.AcceptKeyword("where") {
		if q.Where, err = lang.ParseExprFrom(c); err != nil {
			return nil, err
		}
	}
	if c.AcceptKeyword("with") {
		if err := c.ExpectKeyword("inference"); err != nil {
			return nil, err
		}
		q.Inference = true
	}
	if c.AcceptKeyword("group") {
		if err := c.ExpectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			name, err := c.Expect(lang.TokIdent)
			if err != nil {
				return nil, err
			}
			if !pseudoColumns[name.Text] {
				return nil, fmt.Errorf("query: unknown GROUP BY column %q", name.Text)
			}
			q.GroupBy = append(q.GroupBy, name.Text)
			if _, ok := c.Accept(lang.TokComma); !ok {
				break
			}
		}
	}
	if c.AcceptKeyword("order") {
		if err := c.ExpectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			name, err := c.Expect(lang.TokIdent)
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: name.Text}
			if c.AcceptKeyword("desc") {
				key.Desc = true
			} else {
				c.AcceptKeyword("asc")
			}
			q.OrderBy = append(q.OrderBy, key)
			if _, ok := c.Accept(lang.TokComma); !ok {
				break
			}
		}
	}
	if c.AcceptKeyword("limit") {
		n, err := c.Expect(lang.TokInt)
		if err != nil {
			return nil, err
		}
		if n.Int <= 0 {
			return nil, fmt.Errorf("query: LIMIT must be positive")
		}
		q.Limit = int(n.Int)
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

func parseCol(c *lang.Cursor) (Col, error) {
	name, err := c.Expect(lang.TokIdent)
	if err != nil {
		return Col{}, err
	}
	lowered := strings.ToLower(name.Text)
	if aggFuncs[lowered] && c.Peek().Kind == lang.TokLParen {
		c.Next()
		var inner string
		if _, ok := c.Accept(lang.TokStar); ok {
			inner = "*"
		} else {
			arg, err := c.Expect(lang.TokIdent)
			if err != nil {
				return Col{}, err
			}
			inner = arg.Text
			if !pseudoColumns[inner] {
				return Col{}, fmt.Errorf("query: unknown column %q in %s()", inner, lowered)
			}
		}
		if _, err := c.Expect(lang.TokRParen); err != nil {
			return Col{}, err
		}
		if lowered == "count" && inner != "*" {
			return Col{}, fmt.Errorf("query: count takes *")
		}
		if lowered != "count" && inner == "*" {
			return Col{}, fmt.Errorf("query: %s needs a column", lowered)
		}
		return Col{Name: inner, Agg: lowered}, nil
	}
	if !pseudoColumns[lowered] {
		return Col{}, fmt.Errorf("query: unknown column %q", name.Text)
	}
	return Col{Name: lowered}, nil
}

func (q *Query) validate() error {
	hasAgg := false
	for _, c := range q.Cols {
		if c.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg || len(q.GroupBy) > 0 {
		grouped := map[string]bool{}
		for _, g := range q.GroupBy {
			grouped[g] = true
		}
		for _, c := range q.Cols {
			if c.Agg == "" && !grouped[c.Name] {
				return fmt.Errorf("query: column %q must appear in GROUP BY or an aggregate", c.Name)
			}
		}
	}
	for _, k := range q.OrderBy {
		if !pseudoColumns[k.Col] && !q.hasLabel(k.Col) {
			return fmt.Errorf("query: unknown ORDER BY column %q", k.Col)
		}
	}
	return nil
}

func (q *Query) hasLabel(name string) bool {
	for _, c := range q.Cols {
		if c.Label() == name || (c.Agg != "" && c.Agg == name) {
			return true
		}
	}
	return false
}

// Executor runs queries against a state reader, optionally consulting a
// reasoner for WITH INFERENCE queries.
type Executor struct {
	// Store is the temporal read surface the query scans: the live store
	// or — the recommended source for queries that may
	// run concurrently with ingestion — a pinned state.Snapshot handle,
	// which evaluates the whole query against one consistent lock-free
	// cut (engine.Query and the HTTP server pin one per query).
	Store state.Reader
	// Reasoner may be nil; WITH INFERENCE queries then fail.
	Reasoner *reason.Reasoner
	// Now anchors now() in temporal expressions.
	Now temporal.Instant
}

// Run parses and executes a query.
func (e *Executor) Run(src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

// Execute runs a parsed query.
func (e *Executor) Execute(q *Query) (*Result, error) {
	tx, err := e.systemTime(q)
	if err != nil {
		return nil, err
	}
	facts, err := e.scan(q, tx)
	if err != nil {
		return nil, err
	}
	rows := make([]rowEnv, 0, len(facts))
	for _, f := range facts {
		rows = append(rows, rowEnv{fact: f, now: e.Now, store: e.Store, tx: tx})
	}
	if q.Where != nil {
		kept := rows[:0]
		for _, r := range rows {
			ok, err := lang.EvalBool(q.Where, &r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	res, err := e.projectRows(q, rows)
	if err != nil {
		return nil, err
	}
	e.orderAndLimit(q, res)
	return res, nil
}

// systemTime evaluates the SYSTEM TIME ASOF clause, nil when absent.
func (e *Executor) systemTime(q *Query) (*temporal.Instant, error) {
	if q.SysTime == nil {
		return nil, nil
	}
	v, err := lang.Eval(q.SysTime, &nowEnv{now: e.Now})
	if err != nil {
		return nil, err
	}
	tt, err := asInstant(v)
	if err != nil {
		return nil, err
	}
	return &tt, nil
}

// scanBounds evaluates the temporal header expressions (the ASOF instant
// or the DURING interval) against now(). Shared by the one-shot scan and
// the prepared execution path (exec.go), which evaluates them per call.
func (e *Executor) scanBounds(q *Query) (at temporal.Instant, iv temporal.Interval, err error) {
	env := &nowEnv{now: e.Now}
	switch q.Temporal {
	case AsOf:
		v, err := lang.Eval(q.At, env)
		if err != nil {
			return 0, iv, err
		}
		if at, err = asInstant(v); err != nil {
			return 0, iv, err
		}
	case During:
		fv, err := lang.Eval(q.FromT, env)
		if err != nil {
			return 0, iv, err
		}
		tv, err := lang.Eval(q.ToT, env)
		if err != nil {
			return 0, iv, err
		}
		from, err := asInstant(fv)
		if err != nil {
			return 0, iv, err
		}
		to, err := asInstant(tv)
		if err != nil {
			return 0, iv, err
		}
		iv = temporal.NewInterval(from, to)
	}
	return at, iv, nil
}

// scanOpts maps a query's shape onto the store's option-based List;
// SYSTEM TIME composes as an AsOfTransactionTime option. Shared by the
// serial scan and the partitioned gather so both read the same shape.
func scanOpts(q *Query, tx *temporal.Instant, at temporal.Instant, iv temporal.Interval) []state.ReadOpt {
	var opts []state.ReadOpt
	if q.Attr != "*" {
		opts = append(opts, state.WithAttribute(q.Attr))
	}
	if tx != nil {
		opts = append(opts, state.AsOfTransactionTime(*tx))
	}
	switch q.Temporal {
	case AsOf:
		opts = append(opts, state.AsOfValidTime(at))
	case During:
		opts = append(opts, state.DuringValidTime(iv.Start, iv.End))
	case History:
		opts = append(opts, state.AllVersions())
	}
	return opts
}

func (e *Executor) scan(q *Query, tx *temporal.Instant) ([]*element.Fact, error) {
	at, iv, err := e.scanBounds(q)
	if err != nil {
		return nil, err
	}
	facts := e.Store.List(scanOpts(q, tx, at, iv)...)
	if q.Inference {
		if e.Reasoner == nil {
			return nil, fmt.Errorf("query: WITH INFERENCE requires a reasoner")
		}
		derived, err := e.derivedFor(q, at, iv)
		if err != nil {
			return nil, err
		}
		facts = append(facts, derived...)
	}
	return facts, nil
}

func (e *Executor) derivedFor(q *Query, at temporal.Instant, iv temporal.Interval) ([]*element.Fact, error) {
	var probe temporal.Instant
	switch q.Temporal {
	case Current:
		probe = e.Now
	case AsOf:
		probe = at
	default:
		return nil, fmt.Errorf("query: WITH INFERENCE supports CURRENT and ASOF only")
	}
	var out []*element.Fact
	for _, f := range e.Reasoner.DerivedAt(probe) {
		if q.Attr == "*" || f.Attribute == q.Attr {
			out = append(out, f)
		}
	}
	return out, nil
}

func asInstant(v element.Value) (temporal.Instant, error) {
	if t, ok := v.AsTime(); ok {
		return t, nil
	}
	if n, ok := v.AsInt(); ok {
		return temporal.Instant(n), nil
	}
	return 0, fmt.Errorf("query: %s is not a time", v)
}

func (e *Executor) projectRows(q *Query, rows []rowEnv) (*Result, error) {
	cols := make([]string, len(q.Cols))
	for i, c := range q.Cols {
		cols[i] = c.Label()
	}
	res := &Result{Columns: cols}

	hasAgg := false
	for _, c := range q.Cols {
		if c.Agg != "" {
			hasAgg = true
		}
	}
	if !hasAgg {
		for _, r := range rows {
			vals := make([]element.Value, len(q.Cols))
			for i, c := range q.Cols {
				vals[i] = r.column(c.Name)
			}
			res.Rows = append(res.Rows, vals)
		}
		return res, nil
	}

	// Global aggregates (no GROUP BY) return one row even over an empty
	// input: count is 0, sum is 0, avg/min/max are null — SQL semantics.
	if len(q.GroupBy) == 0 && len(rows) == 0 {
		vals := make([]element.Value, len(q.Cols))
		for i, c := range q.Cols {
			switch c.Agg {
			case "count":
				vals[i] = element.Int(0)
			case "sum":
				vals[i] = element.Float(0)
			default:
				vals[i] = element.Null
			}
		}
		res.Rows = append(res.Rows, vals)
		return res, nil
	}

	type group struct {
		keyVals []element.Value
		rows    []rowEnv
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		parts := make([]string, len(q.GroupBy))
		keyVals := make([]element.Value, len(q.GroupBy))
		for i, gcol := range q.GroupBy {
			keyVals[i] = r.column(gcol)
			parts[i] = keyVals[i].Key()
		}
		k := strings.Join(parts, "\x1f")
		g := groups[k]
		if g == nil {
			g = &group{keyVals: keyVals}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	sort.Strings(order)
	for _, k := range order {
		g := groups[k]
		vals := make([]element.Value, len(q.Cols))
		for i, c := range q.Cols {
			if c.Agg == "" {
				for gi, gcol := range q.GroupBy {
					if gcol == c.Name {
						vals[i] = g.keyVals[gi]
					}
				}
				continue
			}
			vals[i] = aggregate(c, g.rows)
		}
		res.Rows = append(res.Rows, vals)
	}
	return res, nil
}

func aggregate(c Col, rows []rowEnv) element.Value {
	if c.Agg == "count" {
		return element.Int(int64(len(rows)))
	}
	var sum float64
	var best element.Value
	n := 0
	for _, r := range rows {
		v := r.column(c.Name)
		switch c.Agg {
		case "sum", "avg":
			if f, ok := v.AsFloat(); ok {
				sum += f
				n++
			}
		case "min", "max":
			if best.IsNull() {
				best = v
				continue
			}
			cv := v.Compare(best)
			if (c.Agg == "min" && cv < 0) || (c.Agg == "max" && cv > 0) {
				best = v
			}
		}
	}
	switch c.Agg {
	case "sum":
		return element.Float(sum)
	case "avg":
		if n == 0 {
			return element.Null
		}
		return element.Float(sum / float64(n))
	}
	return best
}

func (e *Executor) orderAndLimit(q *Query, res *Result) {
	if len(q.OrderBy) > 0 {
		idx := map[string]int{}
		for i, c := range res.Columns {
			idx[c] = i
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for _, k := range q.OrderBy {
				ci, ok := idx[k.Col]
				if !ok {
					// ORDER BY on a pseudo-column not projected: find by
					// aggregate label match.
					for i, c := range res.Columns {
						if strings.HasPrefix(c, k.Col+"(") {
							ci, ok = i, true
							break
						}
					}
					if !ok {
						continue
					}
				}
				cmp := res.Rows[a][ci].Compare(res.Rows[b][ci])
				if cmp != 0 {
					if k.Desc {
						return cmp > 0
					}
					return cmp < 0
				}
			}
			return false
		})
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
}

// rowEnv exposes one fact version as an expression environment.
type rowEnv struct {
	fact  *element.Fact
	now   temporal.Instant
	store state.Reader
	tx    *temporal.Instant // SYSTEM TIME belief instant; nil = current
}

func (r *rowEnv) column(name string) element.Value {
	switch name {
	case "entity":
		return element.String(r.fact.Entity)
	case "attribute":
		return element.String(r.fact.Attribute)
	case "value":
		return r.fact.Value
	case "start":
		return element.Time(r.fact.Validity.Start)
	case "end":
		return element.Time(r.fact.Validity.End)
	case "recorded":
		return element.Time(r.fact.RecordedAt)
	case "superseded":
		return element.Time(r.fact.SupersededAt)
	}
	return element.Null
}

// Var implements lang.Env: bare identifiers resolve to pseudo-columns.
func (r *rowEnv) Var(name string) (element.Value, bool) {
	if pseudoColumns[name] {
		return r.column(name), true
	}
	return element.Null, false
}

// Field implements lang.Env; rows have no nested fields.
func (r *rowEnv) Field(string, string) (element.Value, bool) { return element.Null, false }

// State implements lang.Env: WHERE clauses may consult other state, e.g.
// SELECT entity FROM position WHERE EXISTS watchlist(entity). Under
// SYSTEM TIME the lookup observes the same belief as the scan.
func (r *rowEnv) State(attr string, entity element.Value) (element.Value, bool) {
	opts := []state.ReadOpt{state.AsOfValidTime(r.now)}
	if r.tx != nil {
		opts = append(opts, state.AsOfTransactionTime(*r.tx))
	}
	f, ok := r.store.Find(entity.String(), attr, opts...)
	if !ok {
		return element.Null, false
	}
	return f.Value, true
}

// Now implements lang.Env.
func (r *rowEnv) Now() temporal.Instant { return r.now }

// nowEnv evaluates temporal header expressions (ASOF/DURING bounds).
type nowEnv struct{ now temporal.Instant }

func (e *nowEnv) Var(string) (element.Value, bool)           { return element.Null, false }
func (e *nowEnv) Field(string, string) (element.Value, bool) { return element.Null, false }
func (e *nowEnv) State(string, element.Value) (element.Value, bool) {
	return element.Null, false
}
func (e *nowEnv) Now() temporal.Instant { return e.now }
