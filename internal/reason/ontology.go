// Package reason implements the reasoning component of Figure 1: an
// ontology (a class taxonomy) plus temporal Horn rules, materialized by
// forward chaining over the state repository.
//
// The paper positions reasoning as a consumer of explicit state: "a
// reasoning system can extract implicit knowledge from the explicit state
// information to augment the answers to both stream processing rules and
// one-time queries" (§3), with ontologies supplying domain knowledge such
// as the product taxonomy of the e-commerce case study (§3.1).
//
// Derived facts carry temporal semantics: the validity of a conclusion is
// the intersection of the validities of its premises, so reclassifying a
// product at time t automatically bounds every conclusion drawn from the
// old classification to end at t.
package reason

import (
	"fmt"
	"sort"
)

// TypeAttribute is the distinguished attribute used for class membership
// facts: type(entity) = "ClassName".
const TypeAttribute = "type"

// Ontology holds schema-level domain knowledge: a class taxonomy.
type Ontology struct {
	subClass map[string]map[string]bool // class → direct superclasses
}

// NewOntology returns an empty ontology.
func NewOntology() *Ontology {
	return &Ontology{subClass: make(map[string]map[string]bool)}
}

// SubClassOf declares sub ⊑ super. Cycles are rejected.
func (o *Ontology) SubClassOf(sub, super string) error {
	if sub == super {
		return fmt.Errorf("reason: class %q cannot subsume itself", sub)
	}
	if reaches(o.subClass, super, sub) {
		return fmt.Errorf("reason: class cycle %q ⊑ %q", sub, super)
	}
	if o.subClass[sub] == nil {
		o.subClass[sub] = make(map[string]bool)
	}
	o.subClass[sub][super] = true
	return nil
}

func reaches(g map[string]map[string]bool, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g[n] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// Superclasses returns the transitive superclasses of the class (excluding
// itself), sorted.
func (o *Ontology) Superclasses(class string) []string { return closure(o.subClass, class) }

func closure(g map[string]map[string]bool, start string) []string {
	seen := map[string]bool{}
	stack := []string{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g[n] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	delete(seen, start)
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
