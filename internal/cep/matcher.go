package cep

import (
	"errors"
	"fmt"

	"repro/internal/element"
	"repro/internal/temporal"
)

// Compilation errors.
var (
	// ErrTrailingNegation reports a sequence ending in a negated item;
	// without a closing positive event the guard can never be discharged.
	ErrTrailingNegation = errors.New("cep: sequence cannot end with a negated item")
	// ErrNegatedNonAtom reports negation applied to a composite pattern.
	ErrNegatedNonAtom = errors.New("cep: only atoms can be negated")
	// ErrInnerWithin reports a WITHIN below the top level; the constraint
	// applies to whole alternatives only.
	ErrInnerWithin = errors.New("cep: WITHIN must wrap the whole pattern")
)

// step is one positive position of a compiled program, with the negated
// guards that must not fire while the matcher waits at this position.
type step struct {
	atom   *Atom
	guards []*Atom
	// iterMin/iterMax > 0 mark a bounded-iteration step.
	iterMin, iterMax int
}

// program is one linearized alternative of a pattern.
type program struct {
	steps  []step
	within temporal.Instant // 0 = unconstrained
}

// Matcher evaluates a pattern over a stream of elements in timestamp
// order, maintaining partial matches (runs) with skip-till-any-match
// semantics: constituent events need not be adjacent, and one event may
// participate in several matches.
type Matcher struct {
	progs []program
	runs  []*run
	// MaxRuns bounds the number of simultaneous partial matches; when
	// exceeded, the oldest runs are dropped. Zero means the default
	// (65536). WITHIN pruning normally keeps run counts far below this.
	MaxRuns int
}

type run struct {
	prog     *program
	pos      int
	iterSeen int // events consumed by the iteration step at pos
	events   []*element.Element
	bindings map[string]*element.Element
	start    temporal.Instant
}

// NewMatcher compiles a pattern. Within must be the outermost node (or
// absent); negation may only apply to atoms and not at the end of a
// sequence.
func NewMatcher(p Pattern) (*Matcher, error) {
	within := temporal.Instant(0)
	if w, ok := p.(*Within); ok {
		if w.D <= 0 {
			return nil, fmt.Errorf("cep: WITHIN duration must be positive")
		}
		within = w.D
		p = w.P
	}
	alts, err := compile(p)
	if err != nil {
		return nil, err
	}
	progs := make([]program, len(alts))
	for i, steps := range alts {
		if len(steps) == 0 {
			return nil, fmt.Errorf("cep: pattern alternative %d is empty", i)
		}
		progs[i] = program{steps: steps, within: within}
	}
	return &Matcher{progs: progs}, nil
}

// compile lowers a pattern to its alternative step sequences.
func compile(p Pattern) ([][]step, error) {
	switch x := p.(type) {
	case *Atom:
		return [][]step{{{atom: x}}}, nil
	case *Iter:
		if x.Min < 1 || x.Max < x.Min {
			return nil, fmt.Errorf("cep: iteration bounds {%d,%d} invalid", x.Min, x.Max)
		}
		return [][]step{{{atom: x.A, iterMin: x.Min, iterMax: x.Max}}}, nil
	case *Seq:
		return compileSeq(x.Items)
	case *Any:
		var all [][]step
		for _, sub := range x.Patterns {
			alts, err := compile(sub)
			if err != nil {
				return nil, err
			}
			all = append(all, alts...)
		}
		return all, nil
	case *All:
		var all [][]step
		for _, perm := range permutations(len(x.Patterns)) {
			items := make([]SeqItem, len(perm))
			for i, pi := range perm {
				items[i] = SeqItem{Pattern: x.Patterns[pi]}
			}
			alts, err := compileSeq(items)
			if err != nil {
				return nil, err
			}
			all = append(all, alts...)
		}
		return all, nil
	case *Within:
		return nil, ErrInnerWithin
	}
	return nil, fmt.Errorf("cep: unknown pattern node %T", p)
}

func compileSeq(items []SeqItem) ([][]step, error) {
	// Gather pending negated guards; attach them to the next positive step.
	alts := [][]step{{}}
	var pending []*Atom
	for _, it := range items {
		if it.Negated {
			a, ok := it.Pattern.(*Atom)
			if !ok {
				return nil, ErrNegatedNonAtom
			}
			pending = append(pending, a)
			continue
		}
		subAlts, err := compile(it.Pattern)
		if err != nil {
			return nil, err
		}
		// Attach pending guards to the first step of each sub-alternative.
		guarded := make([][]step, len(subAlts))
		for i, sa := range subAlts {
			cp := make([]step, len(sa))
			copy(cp, sa)
			if len(pending) > 0 {
				first := cp[0]
				first.guards = append(append([]*Atom{}, pending...), first.guards...)
				cp[0] = first
			}
			guarded[i] = cp
		}
		pending = nil
		// Cross product with accumulated alternatives.
		var next [][]step
		for _, acc := range alts {
			for _, g := range guarded {
				merged := make([]step, 0, len(acc)+len(g))
				merged = append(merged, acc...)
				merged = append(merged, g...)
				next = append(next, merged)
			}
		}
		alts = next
	}
	if len(pending) > 0 {
		return nil, ErrTrailingNegation
	}
	return alts, nil
}

func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int{}, idx...))
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}

func (a *Atom) matches(el *element.Element) bool {
	if a.Stream != "" && a.Stream != el.Stream {
		return false
	}
	return a.Pred == nil || a.Pred(el)
}

const defaultMaxRuns = 65536

// Observe feeds one element and returns any situations completed by it.
// Elements must arrive in timestamp order.
func (m *Matcher) Observe(el *element.Element) []Match {
	var matches []Match
	survivors := m.runs[:0]
	var spawned []*run

	for _, r := range m.runs {
		// WITHIN pruning against the advancing event time.
		if r.prog.within > 0 && el.Timestamp >= r.start+r.prog.within {
			continue
		}
		st := r.prog.steps[r.pos]
		// Negation guard: a matching guard event kills the run.
		killed := false
		for _, g := range st.guards {
			if g.matches(el) {
				killed = true
				break
			}
		}
		if killed {
			continue
		}
		survivors = append(survivors, r) // skip-till-any-match: run persists
		if !st.atom.matches(el) {
			continue
		}
		if st.iterMax > 0 {
			// Iteration step: consume and stay (if below max), and/or
			// consume and advance (if at or above min).
			if r.iterSeen+1 < st.iterMax {
				nr := r.fork(el, st, r.pos, r.iterSeen+1)
				spawned = append(spawned, nr)
			}
			if r.iterSeen+1 >= st.iterMin {
				nr := r.fork(el, st, r.pos+1, 0)
				if nr.pos == len(r.prog.steps) {
					matches = append(matches, nr.toMatch())
				} else {
					spawned = append(spawned, nr)
				}
			}
			continue
		}
		nr := r.fork(el, st, r.pos+1, 0)
		if nr.pos == len(r.prog.steps) {
			matches = append(matches, nr.toMatch())
		} else {
			spawned = append(spawned, nr)
		}
	}
	m.runs = append(survivors, spawned...)

	// Start new runs where the element matches a program's first step.
	for i := range m.progs {
		prog := &m.progs[i]
		st := prog.steps[0]
		if !st.atom.matches(el) {
			continue
		}
		r := &run{prog: prog, start: el.Timestamp, bindings: map[string]*element.Element{}}
		if st.iterMax > 0 {
			nr := r.fork(el, st, 0, 1)
			if st.iterMin <= 1 {
				adv := r.fork(el, st, 1, 0)
				if adv.pos == len(prog.steps) {
					matches = append(matches, adv.toMatch())
				} else {
					m.runs = append(m.runs, adv)
				}
			}
			if st.iterMax > 1 {
				m.runs = append(m.runs, nr)
			}
			continue
		}
		nr := r.fork(el, st, 1, 0)
		if nr.pos == len(prog.steps) {
			matches = append(matches, nr.toMatch())
		} else {
			m.runs = append(m.runs, nr)
		}
	}

	max := m.MaxRuns
	if max == 0 {
		max = defaultMaxRuns
	}
	if len(m.runs) > max {
		m.runs = append(m.runs[:0], m.runs[len(m.runs)-max:]...)
	}
	return matches
}

// AdvanceTo prunes runs that can no longer complete given that all future
// events have timestamps >= wm.
func (m *Matcher) AdvanceTo(wm temporal.Instant) {
	survivors := m.runs[:0]
	for _, r := range m.runs {
		if r.prog.within > 0 && wm >= r.start+r.prog.within {
			continue
		}
		survivors = append(survivors, r)
	}
	m.runs = survivors
}

func (r *run) fork(el *element.Element, st step, newPos, iterSeen int) *run {
	nb := make(map[string]*element.Element, len(r.bindings)+1)
	for k, v := range r.bindings {
		nb[k] = v
	}
	alias := st.atom.Alias
	if alias == "" {
		alias = st.atom.Stream
	}
	if st.iterMax > 0 {
		nb[fmt.Sprintf("%s[%d]", alias, countPrefix(nb, alias))] = el
	} else {
		nb[alias] = el
	}
	ne := make([]*element.Element, len(r.events)+1)
	copy(ne, r.events)
	ne[len(r.events)] = el
	return &run{
		prog: r.prog, pos: newPos, iterSeen: iterSeen,
		events: ne, bindings: nb, start: r.start,
	}
}

func countPrefix(b map[string]*element.Element, alias string) int {
	n := 0
	for {
		if _, ok := b[fmt.Sprintf("%s[%d]", alias, n)]; !ok {
			return n
		}
		n++
	}
}

func (r *run) toMatch() Match {
	first := r.events[0].Timestamp
	last := r.events[len(r.events)-1].Timestamp
	return Match{
		Events:   r.events,
		Bindings: r.bindings,
		Interval: temporal.NewInterval(first, last+1),
	}
}
