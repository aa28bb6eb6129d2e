package bench

import (
	"fmt"
	"time"

	"repro/internal/element"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/temporal"
	"repro/internal/window"
	"repro/internal/workload"
)

// E1SessionScoping tests the paper's first claim (§1): a click-stream
// application must "trace a user from the moment when she enters the Web
// site to the moment when she leaves"; a fixed time frame is either too
// short (sessions split) or too large (resources wasted). We scope the
// same click-stream with fixed tumbling windows of several sizes, Dataflow
// session windows, and the explicit-state sessionizer (Enter/Leave rules
// over the state store), and score each against the generated ground
// truth.
//
// Reported per mechanism: exact-session recall (fraction of true sessions
// reproduced exactly), unit precision (fraction of emitted units that are
// exact sessions), and mean buffered elements (the resource overhead of
// holding data the application logic never needed).
func E1SessionScoping(scale float64) *metrics.Table {
	cfg := workload.DefaultClickstream()
	cfg.Users = scaleInt(cfg.Users, scale)
	els, truth := workload.Clickstream(cfg)

	tab := metrics.NewTable("E1 — session scoping (click-stream §1)",
		"mechanism", "units", "exact-recall%", "precision%", "mean-buffered", "ns/event")

	truthIndex := indexSessions(truth)
	userOf := func(el *element.Element) string { return el.MustGet("visitor").MustString() }

	// Fixed tumbling time windows.
	for _, mins := range []int64{1, 5, 15, 60} {
		w := window.NewTumblingTime(temporal.Instant(time.Duration(mins) * time.Minute))
		units, buffered, perEvent := runWindowUnits(w, els, userOf)
		exact, prec := scoreUnits(units, truthIndex)
		tab.AddRow(fmt.Sprintf("tumbling-%dm", mins), len(units),
			pct(exact, len(truth)), pct(prec, len(units)), buffered, fmtDur(perEvent))
	}

	// Session windows (Dataflow [1]): gap-based, content-sensitive.
	sw := window.NewSession(temporal.Instant(30*time.Minute), userOf)
	units, buffered, perEvent := runWindowUnits(sw, els, userOf)
	exact, prec := scoreUnits(units, truthIndex)
	tab.AddRow("session-30m-gap", len(units),
		pct(exact, len(truth)), pct(prec, len(units)), buffered, fmtDur(perEvent))

	// Explicit state: Enter opens a session in the state repository, Leave
	// closes it; the unit is delimited by the data itself, exactly.
	units, buffered, perEvent = runStateSessions(els)
	exact, prec = scoreUnits(units, truthIndex)
	tab.AddRow("explicit-state", len(units),
		pct(exact, len(truth)), pct(prec, len(units)), buffered, fmtDur(perEvent))

	return tab
}

// unit is one scoped group of events for a single user.
type unit struct {
	user   string
	events int
	span   temporal.Interval
}

func indexSessions(truth []workload.Session) map[string]workload.Session {
	idx := make(map[string]workload.Session, len(truth))
	for _, s := range truth {
		idx[fmt.Sprintf("%s/%d/%d", s.User, s.Interval.Start, s.Events)] = s
	}
	return idx
}

// scoreUnits counts units that exactly reproduce a true session (same
// user, same start, same event count). Returns (recallCount, precisionCount):
// they are equal here because exact matches are one-to-one.
func scoreUnits(units []unit, truthIdx map[string]workload.Session) (int, int) {
	exact := 0
	for _, u := range units {
		if _, ok := truthIdx[fmt.Sprintf("%s/%d/%d", u.user, u.span.Start, u.events)]; ok {
			exact++
		}
	}
	return exact, exact
}

// runWindowUnits drives a windower over the stream, splitting each pane by
// user into units. It returns units, the mean buffered element count
// (sampled per event), and mean processing ns/event.
func runWindowUnits(w window.Windower, els []*element.Element, userOf func(*element.Element) string) ([]unit, float64, float64) {
	var units []unit
	var bufferedSum uint64
	start := time.Now()
	emit := func(panes []window.Pane) {
		for _, p := range panes {
			perUser := map[string]*unit{}
			for _, el := range p.Elements {
				u := userOf(el)
				if perUser[u] == nil {
					perUser[u] = &unit{user: u, span: temporal.NewInterval(el.Timestamp, el.Timestamp+1)}
				}
				perUser[u].events++
				perUser[u].span.End = el.Timestamp + 1
			}
			for _, u := range perUser {
				units = append(units, *u)
			}
		}
	}
	for _, el := range els {
		emit(w.Observe(el))
		emit(w.AdvanceTo(el.Timestamp)) // continuous watermark = event time
		bufferedSum += uint64(w.Pending())
	}
	if len(els) > 0 {
		emit(w.AdvanceTo(els[len(els)-1].Timestamp + temporal.Instant(100*time.Hour)))
	}
	elapsed := time.Since(start)
	n := len(els)
	if n == 0 {
		return units, 0, 0
	}
	return units, float64(bufferedSum) / float64(n), float64(elapsed.Nanoseconds()) / float64(n)
}

// runStateSessions scopes sessions with the explicit-state model: the
// session boundary is part of the state, updated by Enter/Leave (state
// management rules in miniature, run against the real store). Buffered
// count is the number of open sessions (state entries), not raw events —
// the system never retains per-event buffers.
func runStateSessions(els []*element.Element) ([]unit, float64, float64) {
	st := state.NewStore()
	var units []unit
	var bufferedSum uint64
	open := 0
	start := time.Now()
	for _, el := range els {
		user := el.MustGet("visitor").MustString()
		switch el.Stream {
		case "Enter":
			st.Replace(user, "session_start", element.Time(el.Timestamp), el.Timestamp)
			st.Replace(user, "session_events", element.Int(1), el.Timestamp)
			open++
		case "Leave":
			if f, ok := st.Find(user, "session_start"); ok {
				startAt, _ := f.Value.AsTime()
				n := int64(0)
				if c, ok := st.Find(user, "session_events"); ok {
					n = c.Value.MustInt()
				}
				units = append(units, unit{
					user:   user,
					events: int(n) + 1, // + the Leave itself
					span:   temporal.NewInterval(startAt, el.Timestamp+1),
				})
				at := []state.WriteOpt{state.WithValidTime(el.Timestamp), state.WithTransactionTime(el.Timestamp)}
				st.Delete(user, "session_start", at...)
				st.Delete(user, "session_events", at...)
				open--
			}
		default: // Click, Purchase
			if c, ok := st.Find(user, "session_events"); ok {
				st.Replace(user, "session_events", element.Int(c.Value.MustInt()+1), el.Timestamp)
			}
		}
		bufferedSum += uint64(open)
	}
	elapsed := time.Since(start)
	n := len(els)
	if n == 0 {
		return units, 0, 0
	}
	return units, float64(bufferedSum) / float64(n), float64(elapsed.Nanoseconds()) / float64(n)
}
