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

func TestInstantOrdering(t *testing.T) {
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
