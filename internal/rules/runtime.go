package rules

import (
	"errors"
	"fmt"

	"repro/internal/cep"
	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/state"
	"repro/internal/temporal"
)

// ErrOverlap fails a rule whose ASSERT would overlap a believed version
// of the same key. (REPLACE supersedes instead; RETRACT closes.)
var ErrOverlap = errors.New("rules: ASSERT validity overlaps existing version")

// Set is a deployed collection of compiled state management rules. The
// engine feeds it every input element in timestamp order; the Set updates
// the state repository and returns any derived (EMIT) elements.
//
// Rules are routed, not scanned: at compile time every rule is bucketed
// under the stream names that can fire it (a stream trigger under its
// trigger stream, a pattern trigger under every participating stream), so
// Apply touches only the rules relevant to an element's stream. Firing
// order within a bucket is deployment order, exactly as the pre-index
// full scan fired them.
type Set struct {
	rules []*compiledRule
	// byStream routes elements to the deployment-ordered rules that can
	// fire on their stream. Built by NewSet, read-only afterwards.
	byStream map[string][]*compiledRule
	// wildcard disables routing: a pattern atom with an empty stream
	// matches every element, so every rule must see every element.
	wildcard bool
	// emitted counts derived elements and seeds their sequence numbers.
	emitted uint64
	// env is the reusable rule evaluation environment: Apply runs one
	// element at a time, so one scratch per set suffices and the
	// per-element rule pass allocates none.
	env ruleEnv
}

type compiledRule struct {
	rule    *Rule
	matcher *cep.Matcher // nil for stream triggers
	trigger *StreamTrigger
}

// NewSet compiles the given rules. Pattern triggers are compiled to CEP
// matchers; compilation errors name the offending rule.
func NewSet(rs ...*Rule) (*Set, error) {
	s := &Set{byStream: make(map[string][]*compiledRule)}
	for _, r := range rs {
		cr := &compiledRule{rule: r}
		switch t := r.Trigger.(type) {
		case *StreamTrigger:
			cr.trigger = t
		case *PatternTrigger:
			var p cep.Pattern
			switch t.Kind {
			case PatternSeq:
				items := make([]cep.SeqItem, len(t.Items))
				for i, it := range t.Items {
					items[i] = cep.SeqItem{
						Pattern: cep.EventAs(it.Stream, it.Alias),
						Negated: it.Negated,
					}
				}
				p = &cep.Seq{Items: items}
			case PatternAll, PatternAny:
				pats := make([]cep.Pattern, len(t.Items))
				for i, it := range t.Items {
					pats[i] = cep.EventAs(it.Stream, it.Alias)
				}
				if t.Kind == PatternAll {
					p = &cep.All{Patterns: pats}
				} else {
					p = &cep.Any{Patterns: pats}
				}
			default:
				return nil, fmt.Errorf("rules: rule %q: unknown pattern kind %d", r.Name, t.Kind)
			}
			if t.Within > 0 {
				p = &cep.Within{P: p, D: t.Within}
			}
			m, err := cep.NewMatcher(p)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %q: %w", r.Name, err)
			}
			cr.matcher = m
		default:
			return nil, fmt.Errorf("rules: rule %q: unknown trigger %T", r.Name, r.Trigger)
		}
		if len(r.Actions) == 0 {
			return nil, fmt.Errorf("rules: rule %q has no actions", r.Name)
		}
		s.rules = append(s.rules, cr)
	}
	s.index()
	return s, nil
}

// index builds the stream-routing buckets.
func (s *Set) index() {
	for _, cr := range s.rules {
		if cr.trigger != nil {
			s.byStream[cr.trigger.Stream] = append(s.byStream[cr.trigger.Stream], cr)
			continue
		}
		t := cr.rule.Trigger.(*PatternTrigger)
		added := make(map[string]bool, len(t.Items))
		for _, it := range t.Items {
			if it.Stream == "" {
				s.wildcard = true
				continue
			}
			if !added[it.Stream] {
				added[it.Stream] = true
				s.byStream[it.Stream] = append(s.byStream[it.Stream], cr)
			}
		}
	}
}

// route returns the deployment-ordered rules that can fire on stream.
// Skipping a matcher's Observe for non-participating elements is safe:
// such elements match no atom and no negation guard, so they can neither
// advance, kill, nor spawn a run (WITHIN pruning just happens at the next
// participating element or watermark instead).
func (s *Set) route(stream string) []*compiledRule {
	if s.wildcard {
		return s.rules
	}
	return s.byStream[stream]
}

// ParseSet parses and compiles a rule file.
func ParseSet(src string) (*Set, error) {
	rs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	return NewSet(rs...)
}

// Len reports the number of deployed rules.
func (s *Set) Len() int { return len(s.rules) }

// Apply feeds one input element: rules whose trigger matches fire their
// actions against the store at the element's timestamp, in deployment
// order. It returns any EMIT-derived elements, numbered in firing order.
// Elements must arrive in timestamp order.
func (s *Set) Apply(el *element.Element, store *state.Store) ([]*element.Element, error) {
	env := &s.env
	env.store, env.now = store, el.Timestamp
	defer func() { *env = ruleEnv{} }()
	var fired []*element.Element
	for _, cr := range s.route(el.Stream) {
		if cr.trigger != nil {
			if cr.trigger.Stream != el.Stream {
				continue
			}
			env.alias, env.el, env.bindings = cr.trigger.Alias, el, nil
			if err := s.fire(cr, env, &fired); err != nil {
				return nil, err
			}
			continue
		}
		for _, m := range cr.matcher.Observe(el) {
			env.alias, env.el, env.bindings = "", nil, m.Bindings
			if err := s.fire(cr, env, &fired); err != nil {
				return nil, err
			}
		}
	}
	// Sequence numbers are assigned once the pass succeeds, so a failed
	// element consumes none.
	for _, d := range fired {
		d.Seq = s.emitted
		s.emitted++
	}
	return fired, nil
}

// AdvanceTo propagates a watermark to pattern matchers so stale partial
// matches are pruned.
func (s *Set) AdvanceTo(wm temporal.Instant) {
	for _, cr := range s.rules {
		if cr.matcher != nil {
			cr.matcher.AdvanceTo(wm)
		}
	}
}

func (s *Set) fire(cr *compiledRule, env *ruleEnv, fired *[]*element.Element) error {
	r := cr.rule
	if r.Where != nil {
		ok, err := lang.EvalBool(r.Where, env)
		if err != nil {
			return fmt.Errorf("rules: rule %q WHERE: %w", r.Name, err)
		}
		if !ok {
			return nil
		}
	}
	if r.When != nil {
		ok, err := lang.EvalBool(r.When, env)
		if err != nil {
			return fmt.Errorf("rules: rule %q WHEN: %w", r.Name, err)
		}
		if !ok {
			return nil
		}
	}
	for _, a := range r.Actions {
		emitted, err := s.execute(r, a, env)
		if err != nil {
			return fmt.Errorf("rules: rule %q: %w", r.Name, err)
		}
		if emitted != nil {
			*fired = append(*fired, emitted)
		}
	}
	return nil
}

func (s *Set) execute(r *Rule, a Action, env *ruleEnv) (*element.Element, error) {
	switch act := a.(type) {
	case *ReplaceAction:
		entity, err := evalEntity(act.Entity, env)
		if err != nil {
			return nil, err
		}
		v, err := lang.Eval(act.Value, env)
		if err != nil {
			return nil, err
		}
		return nil, env.store.Replace(entity, act.Attr, v, env.now)

	case *AssertAction:
		entity, err := evalEntity(act.Entity, env)
		if err != nil {
			return nil, err
		}
		v, err := lang.Eval(act.Value, env)
		if err != nil {
			return nil, err
		}
		from := env.now
		if act.From != nil {
			if from, err = evalInstant(act.From, env); err != nil {
				return nil, err
			}
		}
		until := temporal.Forever
		if act.Until != nil {
			if until, err = evalInstant(act.Until, env); err != nil {
				return nil, err
			}
		}
		// ASSERT states a fact whose validity is known, so it must not
		// revise one: with in-order input the only believed version that
		// can overlap [from, until) is one holding at from.
		if f, ok := env.store.Find(entity, act.Attr, state.AsOfValidTime(from)); ok {
			return nil, fmt.Errorf("%w: %s.%s %s overlaps %s",
				ErrOverlap, entity, act.Attr, temporal.NewInterval(from, until), f.Validity)
		}
		return nil, env.store.Put(entity, act.Attr, v,
			state.WithValidTime(from), state.WithEndValidTime(until),
			state.WithTransactionTime(from), state.WithSource(r.Name))

	case *RetractAction:
		entity, err := evalEntity(act.Entity, env)
		if err != nil {
			return nil, err
		}
		// Retracting an absent fact is a no-op (Delete of nothing is):
		// rules often fire "close" transitions for keys never opened.
		return nil, env.store.Delete(entity, act.Attr,
			state.WithValidTime(env.now), state.WithTransactionTime(env.now))

	case *EmitAction:
		fields := make([]element.Field, len(act.Fields))
		vals := make([]element.Value, len(act.Fields))
		for i, f := range act.Fields {
			v, err := lang.Eval(f.Expr, env)
			if err != nil {
				return nil, err
			}
			fields[i] = element.Field{Name: f.Name, Kind: v.Kind()}
			vals[i] = v
		}
		tuple := element.NewTuple(element.NewSchema(fields...), vals...)
		// Seq is assigned by Apply once the element's pass succeeds.
		return element.New(act.Stream, env.now, tuple), nil
	}
	return nil, fmt.Errorf("unknown action %T", a)
}

func evalEntity(e lang.Expr, env *ruleEnv) (string, error) {
	v, err := lang.Eval(e, env)
	if err != nil {
		return "", err
	}
	if v.IsNull() {
		return "", fmt.Errorf("entity expression %s is null", e)
	}
	return v.String(), nil
}

func evalInstant(e lang.Expr, env *ruleEnv) (temporal.Instant, error) {
	v, err := lang.Eval(e, env)
	if err != nil {
		return 0, err
	}
	if t, ok := v.AsTime(); ok {
		return t, nil
	}
	if n, ok := v.AsInt(); ok {
		return temporal.Instant(n), nil
	}
	return 0, fmt.Errorf("expression %s is not a time", e)
}

// ruleEnv implements lang.Env for rule evaluation: variables resolve to
// event bindings' fields, and state lookups read the store as of the
// trigger instant. A stream trigger's single binding lives in alias/el
// (no map allocation); pattern matches carry their matcher-built bindings
// map. Each Set reuses one instance, reset by Apply between elements.
type ruleEnv struct {
	alias    string
	el       *element.Element
	bindings map[string]*element.Element
	store    *state.Store
	now      temporal.Instant
}

// Var implements lang.Env. Bare variables are not values in rule scope.
func (e *ruleEnv) Var(string) (element.Value, bool) { return element.Null, false }

// Field implements lang.Env.
func (e *ruleEnv) Field(varName, field string) (element.Value, bool) {
	if e.el != nil && varName == e.alias {
		return e.el.Get(field)
	}
	if el, ok := e.bindings[varName]; ok {
		return el.Get(field)
	}
	return element.Null, false
}

// State implements lang.Env: lookups observe the state as of the trigger
// instant, so rules see the effects of earlier rules at the same tick
// (StateFirst policy is enforced by the engine's invocation order). The
// read goes through the spec-based value path: no option closures, no
// fact clone.
func (e *ruleEnv) State(attr string, entity element.Value) (element.Value, bool) {
	return e.store.FindValue(entity.String(), attr,
		state.ReadSpec{ValidAt: e.now, HasValidAt: true})
}

// Now implements lang.Env.
func (e *ruleEnv) Now() temporal.Instant { return e.now }
