package state

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/element"
	"repro/internal/temporal"
)

// TestSummarizeFrameMatchesFill: the one-pass frame summary a durable
// backend persists equals what the head fill builds over the same
// records carries — value envelope and open value — for every lineage
// cut a flush can write. Lineages get current updates, retroactive
// corrections of closed past intervals, deletes that leave no open
// version, string values and out-of-order explicit transaction times;
// they are cut at pins before, inside and after their writes.
func TestSummarizeFrameMatchesFill(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		const n = 400
		txs := rng.Perm(n)
		for i := 0; i < n; i++ {
			entity := fmt.Sprintf("e%02d", rng.Intn(16))
			tx := temporal.Instant(10*txs[i] + 1 + rng.Intn(9))
			from, to := tx, temporal.Instant(0)
			var v element.Value = element.Int(int64(rng.Intn(100)))
			del := false
			switch k := rng.Intn(10); {
			case k < 2:
				from = temporal.Instant(rng.Int63n(int64(tx)))
				to = from + temporal.Instant(1+rng.Intn(200))
			case k < 3:
				del = true
			case k < 4:
				v = element.String(fmt.Sprint("s", rng.Intn(3)))
			case k < 5:
				v = element.Float(float64(rng.Intn(1000)) / 10)
			}
			opts := []WriteOpt{WithValidTime(from), WithTransactionTime(tx)}
			if to != 0 {
				opts = append(opts, WithEndValidTime(to))
			}
			var err error
			if del {
				err = s.Delete(entity, "v", opts...)
			} else {
				err = s.Put(entity, "v", v, opts...)
			}
			if err != nil {
				t.Fatalf("seed %d write %d: %v", seed, i, err)
			}
		}
		kinds := map[OpenKind]int{}
		for _, tt := range []temporal.Instant{10 * n / 4, 10 * n / 2, 10 * n} {
			s.FlushCut(tt, temporal.MinInstant, func(key element.FactKey, records []*element.Fact) {
				kinds[checkSummary(t, fmt.Sprintf("seed %d %s @%d", seed, key, tt), records).Kind]++
			})
		}
		for _, k := range []OpenKind{OpenNone, OpenNumeric, OpenOther} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d: no lineage cut with open kind %d — the generator misses a case", seed, k)
			}
		}
	}
}

// TestSummarizeFrameTiedStarts: believed versions out of validity order
// with the latest start shared — a cut overlapping explicit transaction
// times can leave that — summarize as fill orders them, for lineages
// short enough for fill's sort to be an insertion sort and long enough
// for it not to be.
func TestSummarizeFrameTiedStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 8, 20, 64} {
		for trial := 0; trial < 50; trial++ {
			records := make([]*element.Fact, n)
			for i := range records {
				start := temporal.Instant(rng.Intn(n))
				end := temporal.Forever
				if rng.Intn(2) == 0 {
					end = start + temporal.Instant(1+rng.Intn(5))
				}
				records[i] = &element.Fact{Entity: "e", Attribute: "v", Value: element.Int(int64(i)),
					Validity: temporal.NewInterval(start, end), RecordedAt: temporal.Instant(i + 1),
					SupersededAt: temporal.Forever}
			}
			checkSummary(t, fmt.Sprintf("n=%d trial %d", n, trial), records)
		}
	}
}

// checkSummary fails unless SummarizeFrame(records) equals the summary
// of the head fill builds over them, and returns its open value.
func checkSummary(t *testing.T, what string, records []*element.Fact) OpenValue {
	t.Helper()
	var h head
	h.fill(records, nil, false)
	want := FrameSummary{Lo: h.vMin, Hi: h.vMax, Numeric: h.vNumeric, Open: openValueOf(h.open)}
	if got := SummarizeFrame(records); got != want {
		t.Fatalf("%s: summary %+v, head filled over the records %+v", what, got, want)
	}
	return want.Open
}
