// Package cep implements a complex event processing pattern matcher in the
// tradition the paper surveys in §2 [2, 6, 11]: situations of interest are
// declared as temporal patterns of events — sequences, conjunctions,
// disjunctions, negation guards, bounded iteration — with WITHIN time
// constraints, and detected situations carry interval time semantics: each
// match is annotated with the validity interval spanned by the events that
// produced it, as in EP-SPARQL [2].
//
// The engine (internal/core) uses matchers as triggers for multi-element
// state management rules: the paper's §3.3 asks for "more complex
// situations in which a state transition is determined by multiple
// streaming elements", and a pattern match is exactly such a determination.
package cep

import (
	"fmt"
	"strings"

	"repro/internal/element"
	"repro/internal/temporal"
)

// Predicate filters candidate events for one pattern position.
type Predicate func(*element.Element) bool

// Pattern is the AST of a situation declaration.
type Pattern interface {
	// String renders the pattern for diagnostics.
	String() string
	patternNode()
}

// Atom matches one event from the named stream satisfying the predicate.
// Alias names the binding in the produced match.
type Atom struct {
	Stream string
	Alias  string
	Pred   Predicate
}

// Seq matches its sub-patterns in temporal order (skip-till-any-match:
// irrelevant events between constituents are ignored).
type Seq struct {
	Items []SeqItem
}

// SeqItem is one step of a sequence. A Negated item is a guard: the
// sequence dies if a matching event occurs between the previous and the
// next positive constituent.
type SeqItem struct {
	Pattern Pattern
	Negated bool
}

// All matches its sub-patterns in any temporal order (conjunction).
type All struct {
	Patterns []Pattern
}

// Any matches when any one sub-pattern matches (disjunction).
type Any struct {
	Patterns []Pattern
}

// Within constrains the whole sub-pattern to span at most D of
// application time.
type Within struct {
	P Pattern
	D temporal.Instant
}

// Iter matches between Min and Max consecutive occurrences of the atom
// (bounded Kleene iteration). All matched events bind under the atom's
// alias (indexed).
type Iter struct {
	A        *Atom
	Min, Max int
}

func (*Atom) patternNode()   {}
func (*Seq) patternNode()    {}
func (*All) patternNode()    {}
func (*Any) patternNode()    {}
func (*Within) patternNode() {}
func (*Iter) patternNode()   {}

// String implements Pattern.
func (a *Atom) String() string {
	if a.Alias != "" && a.Alias != a.Stream {
		return a.Stream + " AS " + a.Alias
	}
	return a.Stream
}

// String implements Pattern.
func (s *Seq) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		if it.Negated {
			parts[i] = "NOT " + it.Pattern.String()
		} else {
			parts[i] = it.Pattern.String()
		}
	}
	return "SEQ(" + strings.Join(parts, ", ") + ")"
}

// String implements Pattern.
func (a *All) String() string {
	parts := make([]string, len(a.Patterns))
	for i, p := range a.Patterns {
		parts[i] = p.String()
	}
	return "ALL(" + strings.Join(parts, ", ") + ")"
}

// String implements Pattern.
func (a *Any) String() string {
	parts := make([]string, len(a.Patterns))
	for i, p := range a.Patterns {
		parts[i] = p.String()
	}
	return "ANY(" + strings.Join(parts, ", ") + ")"
}

// String implements Pattern.
func (w *Within) String() string {
	return fmt.Sprintf("%s WITHIN %s", w.P.String(), time(w.D))
}

// String implements Pattern.
func (i *Iter) String() string {
	return fmt.Sprintf("%s{%d,%d}", i.A.String(), i.Min, i.Max)
}

func time(d temporal.Instant) string { return fmt.Sprintf("%dns", int64(d)) }

// EventAs matches any element of the stream, bound under alias.
func EventAs(stream, alias string) *Atom { return &Atom{Stream: stream, Alias: alias} }

// Match is one detected situation.
type Match struct {
	// Events are the constituent events in temporal order.
	Events []*element.Element
	// Bindings maps atom aliases to events. Iteration atoms bind as
	// alias[0], alias[1], ...
	Bindings map[string]*element.Element
	// Interval is the situation's time of validity: from the first
	// constituent event to just past the last (interval semantics [2]).
	Interval temporal.Interval
}
