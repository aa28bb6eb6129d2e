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

// IsEmpty reports whether the set covers no instants.
func (s *Set) IsEmpty() bool { return len(s.ivs) == 0 }

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

// Remove subtracts an interval from the set.
func (s *Set) Remove(iv Interval) {
	if iv.IsEmpty() || len(s.ivs) == 0 {
		return
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	for _, have := range s.ivs {
		out = append(out, have.Subtract(iv)...)
	}
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

// Overlaps reports whether the set shares any instant with iv.
func (s *Set) Overlaps(iv Interval) bool {
	if iv.IsEmpty() {
		return false
	}
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > iv.Start })
	return i < len(s.ivs) && s.ivs[i].Overlaps(iv)
}

// Intersect returns a new set covering the instants in both s and iv.
func (s *Set) Intersect(iv Interval) *Set {
	out := &Set{}
	for _, have := range s.ivs {
		x := have.Intersect(iv)
		if !x.IsEmpty() {
			out.ivs = append(out.ivs, x)
		}
	}
	return out
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return &Set{ivs: s.Intervals()}
}

// String renders the member intervals in order.
func (s *Set) String() string {
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
