package temporal

import (
	"sort"
	"strings"
)

// Set is a coalesced collection of disjoint, non-adjacent, non-empty
// intervals kept in ascending order. The zero value is an empty set ready
// to use. Sets answer "over which periods was this condition true" queries,
// e.g. the union of validity intervals of all versions of a fact.
type Set struct {
	ivs []Interval
}

// NewSet builds a set from the given intervals, coalescing as needed.
func NewSet(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Len returns the number of disjoint intervals in the set.
func (s *Set) Len() int { return len(s.ivs) }

// Intervals returns a copy of the coalesced intervals in ascending order.
func (s *Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Add inserts an interval, merging with any overlapping or adjacent members
// so the set stays coalesced. Empty intervals are ignored.
func (s *Set) Add(iv Interval) {
	if iv.IsEmpty() {
		return
	}
	// Position of the first interval that could interact with iv.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End >= iv.Start })
	j := i
	merged := iv
	for j < len(s.ivs) && s.ivs[j].Start <= merged.End {
		merged.Start = Min(merged.Start, s.ivs[j].Start)
		merged.End = Max(merged.End, s.ivs[j].End)
		j++
	}
	out := make([]Interval, 0, len(s.ivs)-(j-i)+1)
	out = append(out, s.ivs[:i]...)
	out = append(out, merged)
	out = append(out, s.ivs[j:]...)
	s.ivs = out
}

// Contains reports whether t is covered by the set.
func (s *Set) Contains(t Instant) bool {
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Covers reports whether every instant of iv is in the set. Because the set
// is coalesced, iv must be inside a single member.
func (s *Set) Covers(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > iv.Start })
	return i < len(s.ivs) && s.ivs[i].ContainsInterval(iv)
}

// String renders the member intervals in order.
func (s *Set) String() string {
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
