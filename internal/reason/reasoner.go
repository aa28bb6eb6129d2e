package reason

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// Term is one position of a triple pattern: either a variable (capitalized
// by convention, but any name works) or a constant.
type Term struct {
	Var   string
	Const element.Value
	IsVar bool
}

// TriplePattern matches facts attr(entity) = value. The attribute is
// always constant; entity and value may be variables.
type TriplePattern struct {
	Attr   string
	Entity Term
	Value  Term
}

// String renders the pattern.
func (p TriplePattern) String() string {
	return fmt.Sprintf("%s(%s) = %s", p.Attr, termString(p.Entity), termString(p.Value))
}

func termString(t Term) string {
	if t.IsVar {
		return "?" + t.Var
	}
	return t.Const.String()
}

// HornRule derives the head fact wherever all body patterns hold
// simultaneously; the derived validity is the intersection of the premise
// validities.
type HornRule struct {
	Name string
	Body []TriplePattern
	Head TriplePattern
}

// String renders the rule.
func (r HornRule) String() string {
	parts := make([]string, len(r.Body))
	for i, b := range r.Body {
		parts[i] = b.String()
	}
	return fmt.Sprintf("%s: IF %s THEN %s", r.Name, strings.Join(parts, " AND "), r.Head)
}

// atomicFact is the reasoner's working representation: one value holding
// over one interval.
type atomicFact struct {
	entity string
	attr   string
	value  element.Value
	iv     temporal.Interval
}

type derivedKey struct {
	entity, attr, valueKey string
}

// Reasoner materializes implicit facts from a state store, an ontology,
// and user Horn rules. Derived facts live beside the store (not inside
// it), because inference is naturally multi-valued — an entity can belong
// to several classes at once — while the store enforces one value per
// (entity, attribute) at each instant.
//
// The reasoner is safe for concurrent use. It rematerializes lazily: store
// changes (observed through a watcher) mark it dirty, and the next query
// triggers a full forward-chaining pass. This recompute-on-change policy
// trades latency for simplicity over delete-and-rederive (DRed); the E6
// benchmark measures the cost.
type Reasoner struct {
	mu    sync.Mutex
	ont   *Ontology
	rules []HornRule
	store *state.Store
	dirty bool

	derived     map[derivedKey]*temporal.Set
	derivedVals map[derivedKey]element.Value
	lastDerived int
}

// NewReasoner builds a reasoner over the store. The ontology may be nil
// (rules only).
func NewReasoner(store *state.Store, ont *Ontology) *Reasoner {
	if ont == nil {
		ont = NewOntology()
	}
	r := &Reasoner{ont: ont, store: store, dirty: true}
	store.WatchBatch(func([]state.Change) { r.markDirty() })
	return r
}

// AddRule registers a Horn rule. Head variables must be bound by the body.
func (r *Reasoner) AddRule(rule HornRule) error {
	bound := map[string]bool{}
	for _, b := range rule.Body {
		if b.Entity.IsVar {
			bound[b.Entity.Var] = true
		}
		if b.Value.IsVar {
			bound[b.Value.Var] = true
		}
	}
	for _, t := range []Term{rule.Head.Entity, rule.Head.Value} {
		if t.IsVar && !bound[t.Var] {
			return fmt.Errorf("reason: rule %s: head variable ?%s not bound by body", rule.Name, t.Var)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules = append(r.rules, rule)
	r.dirty = true
	return nil
}

func (r *Reasoner) markDirty() {
	r.mu.Lock()
	r.dirty = true
	r.mu.Unlock()
}

// Materialize runs forward chaining to fixpoint if the store changed since
// the last materialization. It returns the number of derived atomic facts.
func (r *Reasoner) Materialize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dirty {
		return r.lastDerived
	}
	r.materializeLocked()
	return r.lastDerived
}

func (r *Reasoner) materializeLocked() {
	r.derived = make(map[derivedKey]*temporal.Set)
	r.derivedVals = make(map[derivedKey]element.Value)
	r.dirty = false

	base := r.baseFacts()
	derivedCount := 0
	// Semi-naive-ish loop: each round evaluates ontology axioms and rules
	// over base ∪ derived; stop when a round adds nothing.
	for round := 0; ; round++ {
		added := 0
		facts := append(append([]atomicFact{}, base...), r.derivedFactsLocked()...)
		byAttr := indexByAttr(facts)

		// Ontology axiom: type(e)=C, C ⊑ D ⇒ type(e)=D.
		for _, f := range byAttr[TypeAttribute] {
			cls, ok := f.value.AsString()
			if !ok {
				continue
			}
			for _, super := range r.ont.Superclasses(cls) {
				added += r.addDerived(f.entity, TypeAttribute, element.String(super), f.iv)
			}
		}
		// User Horn rules.
		for _, rule := range r.rules {
			added += r.evalRule(rule, byAttr)
		}
		if added == 0 {
			break
		}
		derivedCount += added
	}
	total := 0
	for _, set := range r.derived {
		total += set.Len()
	}
	r.lastDerived = total
}

func (r *Reasoner) baseFacts() []atomicFact {
	versions := r.store.Scan(func(f *element.Fact) bool { return !f.Derived })
	out := make([]atomicFact, 0, len(versions))
	for _, f := range versions {
		out = append(out, atomicFact{entity: f.Entity, attr: f.Attribute, value: f.Value, iv: f.Validity})
	}
	return out
}

func (r *Reasoner) derivedFactsLocked() []atomicFact {
	var out []atomicFact
	for k, set := range r.derived {
		v := r.derivedVals[k]
		for _, iv := range set.Intervals() {
			out = append(out, atomicFact{entity: k.entity, attr: k.attr, value: v, iv: iv})
		}
	}
	return out
}

func indexByAttr(fs []atomicFact) map[string][]atomicFact {
	m := make(map[string][]atomicFact)
	for _, f := range fs {
		m[f.attr] = append(m[f.attr], f)
	}
	return m
}

// addDerived records a derived atomic fact unless the interval is already
// covered; it reports 1 if new coverage was added.
func (r *Reasoner) addDerived(entity, attr string, v element.Value, iv temporal.Interval) int {
	if iv.IsEmpty() {
		return 0
	}
	k := derivedKey{entity: entity, attr: attr, valueKey: v.Key()}
	set := r.derived[k]
	if set == nil {
		set = temporal.NewSet()
		r.derived[k] = set
		r.derivedVals[k] = v
	}
	if set.Covers(iv) {
		return 0
	}
	set.Add(iv)
	return 1
}

type binding map[string]element.Value

func (r *Reasoner) evalRule(rule HornRule, byAttr map[string][]atomicFact) int {
	type partial struct {
		b  binding
		iv temporal.Interval
	}
	parts := []partial{{b: binding{}, iv: temporal.Always()}}
	for _, pat := range rule.Body {
		var next []partial
		for _, p := range parts {
			for _, f := range byAttr[pat.Attr] {
				nb, ok := match(p.b, pat, f)
				if !ok {
					continue
				}
				iv := p.iv.Intersect(f.iv)
				if iv.IsEmpty() {
					continue
				}
				next = append(next, partial{b: nb, iv: iv})
			}
		}
		parts = next
		if len(parts) == 0 {
			return 0
		}
	}
	added := 0
	for _, p := range parts {
		ent, ok := resolve(p.b, rule.Head.Entity)
		if !ok {
			continue
		}
		entStr, ok := ent.AsString()
		if !ok {
			continue
		}
		val, ok := resolve(p.b, rule.Head.Value)
		if !ok {
			continue
		}
		added += r.addDerived(entStr, rule.Head.Attr, val, p.iv)
	}
	return added
}

func match(b binding, pat TriplePattern, f atomicFact) (binding, bool) {
	nb := b
	grown := false
	bind := func(t Term, v element.Value) bool {
		if !t.IsVar {
			return t.Const.Equal(v)
		}
		if cur, ok := nb[t.Var]; ok {
			return cur.Equal(v)
		}
		if !grown {
			cp := make(binding, len(nb)+1)
			for k, val := range nb {
				cp[k] = val
			}
			nb = cp
			grown = true
		}
		nb[t.Var] = v
		return true
	}
	if !bind(pat.Entity, element.String(f.entity)) {
		return nil, false
	}
	if !bind(pat.Value, f.value) {
		return nil, false
	}
	return nb, true
}

func resolve(b binding, t Term) (element.Value, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	v, ok := b[t.Var]
	return v, ok
}

// HoldsAt returns every value (asserted or derived) of attr(entity) valid
// at t, sorted by value key for determinism.
func (r *Reasoner) HoldsAt(entity, attr string, t temporal.Instant) []element.Value {
	r.mu.Lock()
	if r.dirty {
		r.materializeLocked()
	}
	var out []element.Value
	for k, set := range r.derived {
		if k.entity == entity && k.attr == attr && set.Contains(t) {
			out = append(out, r.derivedVals[k])
		}
	}
	r.mu.Unlock()
	if f, ok := r.store.Find(entity, attr, state.AsOfValidTime(t)); ok {
		dup := false
		for _, v := range out {
			if v.Equal(f.Value) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, f.Value)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// DerivedAt returns every derived fact valid at t as Fact values (marked
// Derived), sorted by (attribute, entity, value).
func (r *Reasoner) DerivedAt(t temporal.Instant) []*element.Fact {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		r.materializeLocked()
	}
	var out []*element.Fact
	for k, set := range r.derived {
		for _, iv := range set.Intervals() {
			if iv.Contains(t) {
				f := element.NewFact(k.entity, k.attr, r.derivedVals[k], iv)
				f.Derived = true
				f.Source = "reasoner"
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Attribute != b.Attribute {
			return a.Attribute < b.Attribute
		}
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		return a.Value.Key() < b.Value.Key()
	})
	return out
}
