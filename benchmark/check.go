package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/server"
)

// rowsOf turns an (entity, value) result into a map.
func rowsOf(rows [][]element.Value) (map[string]float64, error) {
	out := make(map[string]float64, len(rows))
	for _, row := range rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("row has %d columns, want entity and value", len(row))
		}
		name, ok1 := row[0].AsString()
		v, ok2 := row[1].AsFloat()
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("row %v is not (string, float)", row)
		}
		out[name] = v
	}
	return out, nil
}

func sameValue(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// checkAsof checks an asof result aimed at correction c. Before the
// correction was recorded the sensor must answer with its old value (or
// not at all when that is below K); from then on with the corrected one.
func checkAsof(rows [][]element.Value, name string, c correction, before bool) error {
	got, err := rowsOf(rows)
	if err != nil {
		return err
	}
	v, present := got[name]
	switch {
	case before && c.old > selectAbove && !(present && sameValue(v, c.old)):
		return fmt.Errorf("asof before correction of %s: got %v present=%v, want old value %v", name, v, present, c.old)
	case before && c.old <= selectAbove && present:
		return fmt.Errorf("asof before correction of %s: got %v, want no row (old value %v)", name, v, c.old)
	case !before && !(present && sameValue(v, c.new)):
		return fmt.Errorf("asof at correction of %s: got %v present=%v, want %v", name, v, present, c.new)
	}
	return nil
}

// verify compares the quiesced system's answers over HTTP with the
// reference model: the full scan, the select, point facts, and asof
// reads on both sides of the four most recent corrections. Each comparison is one
// attempted operation; a mismatch is a failed one.
func (x *env) verify(c *server.Client, ref *reference, what string) {
	want := ref.currentRows()

	x.attempt(1)
	if res, err := c.Query(scanText); err != nil {
		x.fail("%s: scan: %v", what, err)
	} else if got, err := rowsOf(res.Rows); err != nil {
		x.fail("%s: scan: %v", what, err)
	} else if len(got) != len(want) || digestOf(got) != digestOf(want) {
		x.fail("%s: scan has %d rows digest %x, reference %d rows digest %x",
			what, len(got), digestOf(got), len(want), digestOf(want))
	}

	x.attempt(1)
	hot := make(map[string]float64)
	for n, v := range want {
		if v > selectAbove {
			hot[n] = v
		}
	}
	if res, err := c.Query(selectText); err != nil {
		x.fail("%s: select: %v", what, err)
	} else if got, err := rowsOf(res.Rows); err != nil {
		x.fail("%s: select: %v", what, err)
	} else if len(got) != len(hot) || digestOf(got) != digestOf(hot) {
		x.fail("%s: select has %d rows, reference %d", what, len(got), len(hot))
	}

	seen := ref.seen()
	for i := 0; i < 64 && i < len(seen); i++ {
		s := seen[i*len(seen)/64%len(seen)]
		x.attempt(1)
		f, found, err := c.Current(ref.names[s], attrName)
		if err != nil {
			x.fail("%s: fact %s: %v", what, ref.names[s], err)
		} else if !found {
			x.fail("%s: fact %s not found, reference %v", what, ref.names[s], ref.last[s])
		} else if v, _ := f.Value.AsFloat(); !sameValue(v, ref.last[s]) {
			x.fail("%s: fact %s = %v, reference %v", what, ref.names[s], v, ref.last[s])
		}
	}

	for i := 0; i < 4; i++ {
		corr, ok := ref.pickCorrection(i)
		if !ok {
			break
		}
		for _, before := range []bool{true, false} {
			sysAt := corr.tt
			if before {
				sysAt--
			}
			x.attempt(1)
			if res, err := c.Query(asofText(corr.from, sysAt)); err != nil {
				x.fail("%s: asof: %v", what, err)
			} else if err := checkAsof(res.Rows, ref.names[corr.sensor], corr, before); err != nil {
				x.fail("%s: %v", what, err)
			}
		}
	}
}

// verifyCounters checks the engine's own element counters against what
// the reference saw since the engine was built: every reading was
// ingested, every spike emitted exactly one Alert, and the gated
// processor passed exactly the hot elements (each hot reading and its
// alert).
func (x *env) verifyCounters(e *core.Engine, want refCounts, what string) {
	x.attempt(1)
	st := e.Stats()
	if got := int64(e.ElementsIn()); got != want.elements {
		x.fail("%s: engine ingested %d elements, reference %d", what, got, want.elements)
	} else if len(st) != 1 || int64(st[0].Seen) != want.elements+want.alerts || int64(st[0].Processed) != 2*want.hot {
		x.fail("%s: processor counters %+v, reference %+v", what, st, want)
	}
}
