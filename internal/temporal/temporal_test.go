package temporal

import (
	"testing"
	"testing/quick"
	"time"
)

func iv(a, b int64) Interval { return Interval{Start: Instant(a), End: Instant(b)} }

func TestInstantConversions(t *testing.T) {
	now := time.Unix(1700000000, 123456789)
	if got := Instant(now.UnixNano()).Time(); !got.Equal(now) {
		t.Fatalf("round trip: got %v want %v", got, now)
	}
	if got := FromMillis(1500); got != Instant(1500*time.Millisecond) {
		t.Fatalf("FromMillis: got %d", got)
	}
	if got := FromSeconds(2); got != Instant(2*time.Second) {
		t.Fatalf("FromSeconds: got %d", got)
	}
}

func TestInstantAddSentinels(t *testing.T) {
	if Forever.Add(time.Hour) != Forever {
		t.Error("Forever should absorb Add")
	}
	if MinInstant.Add(-time.Hour) != MinInstant {
		t.Error("MinInstant should absorb Add")
	}
	if Instant(10).Add(5) != Instant(15) {
		t.Error("finite Add failed")
	}
}

func TestInstantOrdering(t *testing.T) {
	if !Instant(1).Before(Instant(2)) || Instant(2).Before(Instant(1)) {
		t.Error("Before is wrong")
	}
	if !Instant(2).After(Instant(1)) {
		t.Error("After is wrong")
	}
	if Min(Instant(3), Instant(5)) != 3 || Max(Instant(3), Instant(5)) != 5 {
		t.Error("Min/Max wrong")
	}
}

func TestInstantString(t *testing.T) {
	if Forever.String() != "+inf" || MinInstant.String() != "-inf" {
		t.Error("sentinel strings wrong")
	}
	if Instant(0).String() == "" {
		t.Error("finite instant should render")
	}
}

func TestIntervalBasics(t *testing.T) {
	a := iv(10, 20)
	if a.IsEmpty() || a.IsOpen() {
		t.Error("finite interval misclassified")
	}
	if !Since(5).IsOpen() {
		t.Error("Since should be open")
	}
	if iv(10, 10).IsEmpty() == false || iv(20, 10).IsEmpty() == false {
		t.Error("empty intervals misclassified")
	}
	if !a.Contains(10) || a.Contains(20) || a.Contains(9) {
		t.Error("half-open containment wrong")
	}
	if !Always().Contains(0) || !Always().Contains(MinInstant) {
		t.Error("Always should contain everything")
	}
	if a.Duration() != 10 {
		t.Errorf("Duration: got %d", a.Duration())
	}
}

func TestIntervalOverlapIntersect(t *testing.T) {
	cases := []struct {
		a, b    Interval
		overlap bool
		inter   Interval
	}{
		{iv(0, 10), iv(5, 15), true, iv(5, 10)},
		{iv(0, 10), iv(10, 20), false, Interval{}},
		{iv(0, 10), iv(2, 5), true, iv(2, 5)},
		{iv(0, 10), iv(20, 30), false, Interval{}},
		{iv(0, 10), iv(0, 10), true, iv(0, 10)},
		{Since(5), iv(0, 10), true, iv(5, 10)},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlap {
			t.Errorf("%v overlaps %v: got %v", c.a, c.b, got)
		}
		if got := c.a.Intersect(c.b); got != c.inter {
			t.Errorf("%v intersect %v: got %v want %v", c.a, c.b, got, c.inter)
		}
	}
}

func TestIntervalSubtract(t *testing.T) {
	cases := []struct {
		a, b Interval
		want []Interval
	}{
		{iv(0, 10), iv(3, 6), []Interval{iv(0, 3), iv(6, 10)}},
		{iv(0, 10), iv(0, 5), []Interval{iv(5, 10)}},
		{iv(0, 10), iv(5, 10), []Interval{iv(0, 5)}},
		{iv(0, 10), iv(0, 10), nil},
		{iv(0, 10), iv(20, 30), []Interval{iv(0, 10)}},
		{iv(0, 10), iv(-5, 15), nil},
	}
	for _, c := range cases {
		got := c.a.Subtract(c.b)
		if len(got) != len(c.want) {
			t.Errorf("%v - %v: got %v want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v - %v: got %v want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestIntersectCommutesQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := iv(int64(a1), int64(a2))
		b := iv(int64(b1), int64(b2))
		return a.Intersect(b) == b.Intersect(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectContainedQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := iv(int64(a1), int64(a2))
		b := iv(int64(b1), int64(b2))
		x := a.Intersect(b)
		if x.IsEmpty() {
			return true
		}
		return a.ContainsInterval(x) && b.ContainsInterval(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubtractDisjointFromOperandQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := iv(int64(a1), int64(a2))
		b := iv(int64(b1), int64(b2))
		for _, piece := range a.Subtract(b) {
			if piece.Overlaps(b) || !a.ContainsInterval(piece) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
