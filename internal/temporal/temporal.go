// Package temporal provides the time algebra that underpins explicit state
// management: instants, half-open validity intervals, and coalesced interval
// sets.
//
// The paper models state as "a collection of data elements annotated with
// their time of validity" (Margara et al., EDBT 2017, §3). This package is
// the foundation for those validity annotations: the state store
// (internal/state) attaches an Interval to every fact version, the CEP
// matcher (internal/cep) gives detected situations interval semantics, and
// the reasoner (internal/reason) intersects premise intervals to derive the
// validity of inferred facts.
package temporal

import (
	"fmt"
	"time"
)

// Instant is a point on the application time line, expressed in nanoseconds
// since the Unix epoch. Using a plain integer (rather than time.Time) keeps
// elements and fact versions compact, comparable with <, and trivially
// serializable in the state log.
type Instant int64

// Distinguished instants. The valid range for application timestamps is
// [MinInstant, Forever); Forever marks the open end of a fact that is still
// valid ("until further notice").
const (
	// MinInstant is the earliest representable instant.
	MinInstant Instant = -1 << 62
	// Forever marks an unbounded interval end: the fact is valid until it
	// is explicitly retracted or replaced.
	Forever Instant = 1<<63 - 1
)

// FromMillis converts a millisecond epoch timestamp to an Instant.
func FromMillis(ms int64) Instant { return Instant(ms) * Instant(time.Millisecond) }

// FromSeconds converts a second epoch timestamp to an Instant.
func FromSeconds(s int64) Instant { return Instant(s) * Instant(time.Second) }

// Time converts the instant back to a time.Time. Forever and MinInstant do
// not round-trip; callers should test for them explicitly.
func (i Instant) Time() time.Time { return time.Unix(0, int64(i)) }

// Min returns the earlier of two instants.
func Min(a, b Instant) Instant {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of two instants.
func Max(a, b Instant) Instant {
	if a > b {
		return a
	}
	return b
}

// String renders the instant; the two sentinels print symbolically.
func (i Instant) String() string {
	switch i {
	case Forever:
		return "+inf"
	case MinInstant:
		return "-inf"
	}
	return i.Time().UTC().Format(time.RFC3339Nano)
}

// Interval is a half-open time interval [Start, End). Half-open intervals
// compose without double counting: a fact replaced at time t is valid in
// [s, t) and its successor in [t, ...), so exactly one version holds at
// every instant. An interval with End == Forever is still open.
type Interval struct {
	Start Instant
	End   Instant
}

// NewInterval returns the half-open interval [start, end).
func NewInterval(start, end Instant) Interval { return Interval{Start: start, End: end} }

// Since returns the open-ended interval [start, Forever).
func Since(start Instant) Interval { return Interval{Start: start, End: Forever} }

// Always is the interval covering all representable time.
func Always() Interval { return Interval{Start: MinInstant, End: Forever} }

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.End <= iv.Start }

// IsOpen reports whether the interval extends to Forever.
func (iv Interval) IsOpen() bool { return iv.End == Forever }

// Contains reports whether t lies in [Start, End).
func (iv Interval) Contains(t Instant) bool { return t >= iv.Start && t < iv.End }

// ContainsInterval reports whether o is entirely inside iv.
func (iv Interval) ContainsInterval(o Interval) bool {
	return o.Start >= iv.Start && o.End <= iv.End && !o.IsEmpty()
}

// Overlaps reports whether the two intervals share at least one instant.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End && !iv.IsEmpty() && !o.IsEmpty()
}

// Intersect returns the largest interval contained in both. The result may
// be empty; test with IsEmpty.
func (iv Interval) Intersect(o Interval) Interval {
	r := Interval{Start: Max(iv.Start, o.Start), End: Min(iv.End, o.End)}
	if r.IsEmpty() {
		return Interval{}
	}
	return r
}

// String renders the interval in [start, end) form.
func (iv Interval) String() string { return fmt.Sprintf("[%s, %s)", iv.Start, iv.End) }
