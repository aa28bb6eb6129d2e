package temporal

import (
	"math/rand"
	"testing"
)

func TestSetAddCoalesces(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30))
	if s.Len() != 2 {
		t.Fatalf("want 2 intervals, got %d: %s", s.Len(), s)
	}
	s.Add(iv(10, 20)) // bridges the gap
	if s.Len() != 1 || s.Intervals()[0] != iv(0, 30) {
		t.Fatalf("coalesce failed: %s", s)
	}
}

func TestSetAddOverlapping(t *testing.T) {
	s := NewSet()
	s.Add(iv(5, 15))
	s.Add(iv(0, 7))
	s.Add(iv(14, 20))
	if s.Len() != 1 || s.Intervals()[0] != iv(0, 20) {
		t.Fatalf("overlap coalesce failed: %s", s)
	}
}

func TestSetAddEmptyIgnored(t *testing.T) {
	s := NewSet()
	s.Add(iv(5, 5))
	if s.Len() != 0 {
		t.Fatal("empty interval should be ignored")
	}
}

func TestSetContainsCovers(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30))
	if !s.Contains(0) || !s.Contains(9) || s.Contains(10) || s.Contains(15) {
		t.Error("Contains wrong")
	}
	if !s.Covers(iv(2, 8)) || s.Covers(iv(5, 25)) || !s.Covers(iv(20, 30)) {
		t.Error("Covers wrong")
	}
	if !s.Covers(Interval{}) {
		t.Error("empty interval should be covered vacuously")
	}
}

func TestSetString(t *testing.T) {
	if NewSet().String() != "{}" {
		t.Error("empty set string")
	}
}

// TestSetMatchesNaiveModel compares the coalescing Set against a brute-force
// boolean timeline over a small domain under a random sequence of adds.
func TestSetMatchesNaiveModel(t *testing.T) {
	const domain = 64
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := NewSet()
		var model [domain]bool
		for op := 0; op < 8; op++ {
			a := rng.Int63n(domain)
			b := rng.Int63n(domain)
			if a > b {
				a, b = b, a
			}
			s.Add(iv(a, b))
			for k := a; k < b; k++ {
				model[k] = true
			}
		}
		for k := 0; k < domain; k++ {
			if s.Contains(Instant(k)) != model[k] {
				t.Fatalf("trial %d: mismatch at %d: set=%v model=%v (%s)",
					trial, k, s.Contains(Instant(k)), model[k], s)
			}
		}
		// Invariant: members are sorted, disjoint, non-adjacent, non-empty.
		ivs := s.Intervals()
		for i, in := range ivs {
			if in.IsEmpty() {
				t.Fatalf("trial %d: empty member %v", trial, in)
			}
			if i > 0 && ivs[i-1].End >= in.Start {
				t.Fatalf("trial %d: not coalesced: %v then %v", trial, ivs[i-1], in)
			}
		}
	}
}
