package window

import (
	"math/rand"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestTumblingPartitionsStream: every element lands in exactly one pane,
// and pane intervals tile time without overlap.
func TestTumblingPartitionsStream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		size := temporal.Instant(1 + rng.Intn(20))
		w := NewTumblingTime(size)
		n := 20 + rng.Intn(40)
		ts := int64(0)
		seen := map[uint64]int{}
		var panes []Pane
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(6))
			e := el(ts, "u", 1)
			e.Seq = uint64(i)
			panes = append(panes, w.Observe(e)...)
			panes = append(panes, w.AdvanceTo(e.Timestamp)...)
		}
		panes = append(panes, w.AdvanceTo(temporal.Instant(ts)+size+1)...)
		for _, p := range panes {
			if p.Window.End-p.Window.Start != size {
				t.Fatalf("trial %d: pane size %v != %v", trial, p.Window.End-p.Window.Start, size)
			}
			for _, e := range p.Elements {
				seen[e.Seq]++
				if !p.Window.Contains(e.Timestamp) {
					t.Fatalf("trial %d: element outside pane", trial)
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("trial %d: %d/%d elements emitted", trial, len(seen), n)
		}
		for s, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: element %d in %d panes", trial, s, c)
			}
		}
		// Panes tile: consecutive intervals abut.
		for i := 1; i < len(panes); i++ {
			if panes[i].Window.Start != panes[i-1].Window.End {
				t.Fatalf("trial %d: gap between panes %v and %v", trial, panes[i-1].Window, panes[i].Window)
			}
		}
	}
}

// TestSlidingCoverage: with slide dividing size evenly, every element
// appears in exactly size/slide panes once all windows containing it
// have closed.
func TestSlidingCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		slide := temporal.Instant(1 + rng.Intn(5))
		k := 1 + rng.Intn(4)
		size := slide * temporal.Instant(k)
		w := NewSlidingTime(size, slide)
		n := 20 + rng.Intn(30)
		ts := int64(0)
		counts := map[uint64]int{}
		count := func(panes []Pane) {
			for _, p := range panes {
				for _, e := range p.Elements {
					counts[e.Seq]++
				}
			}
		}
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(4))
			e := el(ts, "u", 1)
			e.Seq = uint64(i)
			count(w.Observe(e))
			count(w.AdvanceTo(e.Timestamp))
		}
		count(w.AdvanceTo(temporal.Instant(ts) + size + slide))
		if len(counts) != n {
			t.Fatalf("trial %d: %d/%d elements covered (size=%d slide=%d)", trial, len(counts), n, size, slide)
		}
		for s, c := range counts {
			if c != k {
				t.Fatalf("trial %d: element %d in %d panes, want %d (size=%d slide=%d)",
					trial, s, c, k, size, slide)
			}
		}
	}
}

// TestSessionGapInvariant: within any emitted session, consecutive
// elements of the same key are closer than the gap; across consecutive
// sessions of one key, the separation is at least the gap.
func TestSessionGapInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gap := temporal.Instant(10)
	for trial := 0; trial < 40; trial++ {
		w := NewSession(gap, func(e *element.Element) string { return e.MustGet("user").MustString() })
		users := []string{"a", "b"}
		ts := int64(0)
		var panes []Pane
		n := 30 + rng.Intn(30)
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(15))
			e := el(ts, users[rng.Intn(2)], 1)
			e.Seq = uint64(i)
			panes = append(panes, w.Observe(e)...)
			panes = append(panes, w.AdvanceTo(e.Timestamp)...)
		}
		panes = append(panes, w.AdvanceTo(temporal.Instant(ts)+gap+1)...)
		lastEnd := map[string]temporal.Instant{}
		total := 0
		for _, p := range panes {
			for i := 1; i < len(p.Elements); i++ {
				if p.Elements[i].Timestamp-p.Elements[i-1].Timestamp >= gap {
					t.Fatalf("trial %d: intra-session gap >= %d", trial, gap)
				}
			}
			last := p.Elements[len(p.Elements)-1].Timestamp
			if prev, ok := lastEnd[p.Key]; ok {
				if p.Elements[0].Timestamp-prev < gap {
					t.Fatalf("trial %d: sessions of %q separated by < gap", trial, p.Key)
				}
			}
			lastEnd[p.Key] = last
			total += len(p.Elements)
		}
		if total != n {
			t.Fatalf("trial %d: %d/%d elements in sessions", trial, total, n)
		}
	}
}
