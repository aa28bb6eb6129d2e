package stream

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

var testSchema = element.NewSchema(
	element.Field{Name: "k", Kind: element.KindString},
	element.Field{Name: "v", Kind: element.KindInt},
)

func el(ts int64, k string, v int64) *element.Element {
	return element.New("T", temporal.Instant(ts), element.NewTuple(testSchema, element.String(k), element.Int(v)))
}

func TestFromElementsAssignsSeqAndWatermark(t *testing.T) {
	ms := FromElements([]*element.Element{el(5, "a", 1), el(5, "b", 2)})
	if len(ms) != 3 || ms[0].El.Seq != 0 || ms[1].El.Seq != 1 {
		t.Fatalf("got %v", ms)
	}
	last := ms[2]
	if !last.IsWatermark || last.Watermark != 6 {
		t.Errorf("final watermark: %v", last)
	}
}

func TestWithPeriodicWatermarks(t *testing.T) {
	els := []*element.Element{el(0, "a", 1), el(10, "a", 2), el(25, "a", 3)}
	ms := WithPeriodicWatermarks(els, 10)
	// Expect watermarks at 10, 20 interleaved and a final one at 26.
	var wms []int64
	for _, m := range ms {
		if m.IsWatermark {
			wms = append(wms, int64(m.Watermark))
		}
	}
	want := []int64{10, 20, 26}
	if len(wms) != len(want) {
		t.Fatalf("watermarks: got %v want %v", wms, want)
	}
	for i := range want {
		if wms[i] != want[i] {
			t.Fatalf("watermarks: got %v want %v", wms, want)
		}
	}
	// Watermark must precede any element with equal-or-greater timestamp.
	seenWM := temporal.MinInstant
	for _, m := range ms {
		if m.IsWatermark {
			seenWM = m.Watermark
		} else if m.El.Timestamp < seenWM {
			t.Fatalf("element %v after watermark %d", m.El, seenWM)
		}
	}
	if got := WithPeriodicWatermarks(nil, 10); len(got) != 1 || !got[0].IsWatermark {
		t.Error("empty input should still emit a watermark")
	}
}

func TestMergeSorted(t *testing.T) {
	a := []*element.Element{el(1, "a", 1), el(4, "a", 2), el(9, "a", 3)}
	b := []*element.Element{el(2, "b", 1), el(4, "b", 2)}
	c := []*element.Element{el(0, "c", 1)}
	got := MergeSorted(a, b, c)
	if len(got) != 6 {
		t.Fatalf("len: %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp < got[i-1].Timestamp {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	// Equal timestamps at ts=4: input index breaks the tie (a before b).
	if got[3].MustGet("k").MustString() != "a" || got[4].MustGet("k").MustString() != "b" {
		t.Errorf("tie-break wrong: %v %v", got[3], got[4])
	}
}

func TestMergeSortedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var inputs [][]*element.Element
		var all []int64
		for s := 0; s < 4; s++ {
			n := rng.Intn(20)
			ts := make([]int64, n)
			for i := range ts {
				ts[i] = rng.Int63n(100)
			}
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			in := make([]*element.Element, n)
			for i, v := range ts {
				in[i] = el(v, "x", int64(i))
				all = append(all, v)
			}
			inputs = append(inputs, in)
		}
		got := MergeSorted(inputs...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if len(got) != len(all) {
			t.Fatalf("length mismatch")
		}
		for i := range got {
			if int64(got[i].Timestamp) != all[i] {
				t.Fatalf("trial %d: order mismatch at %d", trial, i)
			}
		}
	}
}
