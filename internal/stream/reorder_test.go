package stream

import (
	"math/rand"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

func TestReordererBasic(t *testing.T) {
	r := NewReorderer()
	// Out-of-order arrivals within one watermark period.
	if got := r.Process(ElementMsg(el(5, "a", 1))); got != nil {
		t.Fatal("elements buffer until a watermark")
	}
	r.Process(ElementMsg(el(2, "b", 1)))
	r.Process(ElementMsg(el(8, "c", 1)))
	if len(r.buf) != 3 {
		t.Fatalf("pending: %d", len(r.buf))
	}
	out := r.Process(WatermarkMsg(6))
	// Elements < 6 in order, then the watermark. ts=8 stays buffered.
	if len(out) != 3 || out[0].El.Timestamp != 2 || out[1].El.Timestamp != 5 || !out[2].IsWatermark {
		t.Fatalf("release: %v", out)
	}
	if len(r.buf) != 1 {
		t.Fatalf("pending after release: %d", len(r.buf))
	}
}

func TestReordererDropsLate(t *testing.T) {
	r := NewReorderer()
	r.Process(WatermarkMsg(10))
	if got := r.Process(ElementMsg(el(5, "a", 1))); got != nil {
		t.Fatal("late element should be dropped silently")
	}
	if r.Late() != 1 {
		t.Fatalf("late count: %d", r.Late())
	}
	// Watermark regression is ignored.
	if got := r.Process(WatermarkMsg(5)); got != nil {
		t.Fatal("regressing watermark should be ignored")
	}
}

// TestReordererFlush drains the buffer at end of input: a final watermark
// past the last element releases everything, in order, then the watermark.
func TestReordererFlush(t *testing.T) {
	r := NewReorderer()
	r.Process(ElementMsg(el(9, "a", 1)))
	r.Process(ElementMsg(el(3, "b", 1)))
	out := r.Process(WatermarkMsg(10))
	if len(out) != 3 || out[0].El.Timestamp != 3 || out[1].El.Timestamp != 9 {
		t.Fatalf("flush: %v", out)
	}
	last := out[2]
	if !last.IsWatermark || last.Watermark != 10 {
		t.Fatalf("final watermark: %v", last)
	}
	if len(r.buf) != 0 {
		t.Fatal("flush should empty the buffer")
	}
}

// TestReordererRandomized shuffles a stream within bounded disorder and
// checks the output is in order and complete.
func TestReordererRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		const n = 200
		const disorder = 10
		els := make([]*element.Element, n)
		for i := range els {
			els[i] = el(int64(i), "k", int64(i))
			els[i].Seq = uint64(i)
		}
		// Bounded disorder: shuffle within disjoint blocks of `disorder`,
		// so no element is displaced by more than disorder-1 positions.
		for start := 0; start < n; start += disorder {
			end := start + disorder
			if end > n {
				end = n
			}
			block := els[start:end]
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		r := NewReorderer()
		var out []*element.Element
		for i, e := range els {
			for _, m := range r.Process(ElementMsg(e)) {
				if !m.IsWatermark {
					out = append(out, m.El)
				}
			}
			// Watermark lags by the disorder bound, so nothing is late.
			if i%7 == 0 {
				wm := temporal.Instant(i - 2*disorder)
				for _, m := range r.Process(WatermarkMsg(wm)) {
					if !m.IsWatermark {
						out = append(out, m.El)
					}
				}
			}
		}
		for _, m := range r.Process(WatermarkMsg(n)) {
			if !m.IsWatermark {
				out = append(out, m.El)
			}
		}
		if r.Late() != 0 {
			t.Fatalf("trial %d: %d late drops with sufficient watermark lag", trial, r.Late())
		}
		if len(out) != n {
			t.Fatalf("trial %d: %d/%d delivered", trial, len(out), n)
		}
		for i := 1; i < len(out); i++ {
			if !out[i-1].Before(out[i]) {
				t.Fatalf("trial %d: out of order at %d", trial, i)
			}
		}
	}
}

func TestReordererInPipeline(t *testing.T) {
	r, c := NewReorderer(), NewCollector()
	for _, m := range []Message{ElementMsg(el(7, "a", 1)), ElementMsg(el(3, "a", 1)), WatermarkMsg(10)} {
		for _, out := range r.Process(m) {
			c.Process(out)
		}
	}
	if len(c.Elements) != 2 || c.Elements[0].Timestamp != 3 {
		t.Fatalf("pipeline reorder: %v", c.Elements)
	}
	if c.Watermark != 10 {
		t.Fatalf("watermark propagation: %d", c.Watermark)
	}
}
