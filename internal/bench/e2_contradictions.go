package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/window"
	"repro/internal/workload"
)

// E2Contradictions tests the paper's second claim (§1): with a fixed time
// window over position events, "it is possible that a visitor moves
// through multiple rooms within the scope of a single window. Considering
// all the events generated within this fixed time frame as valid would
// lead to the erroneous conclusion that the visitor is simultaneously in
// multiple rooms."
//
// For each window size we count, over all window evaluations, the visitor
// observations that are contradictory (more than one room deemed valid)
// and those that are stale or wrong versus ground truth. The same stream
// processed by the explicit-state engine (REPLACE rule) is probed at the
// same instants.
func E2Contradictions(scale float64) *metrics.Table {
	cfg := workload.DefaultBuilding()
	cfg.Visitors = scaleInt(cfg.Visitors, scale)
	els, truth := workload.Building(cfg)

	tab := metrics.NewTable("E2 — contradictory conclusions (security §1)",
		"mechanism", "observations", "contradictory%", "wrong%", "ns/event")

	for _, mins := range []int64{1, 5, 10} {
		size := temporal.Instant(time.Duration(mins) * time.Minute)
		obs, contra, wrong, perEvent := windowPositions(els, truth, size)
		tab.AddRow(fmt.Sprintf("tumbling-%dm", mins), obs, pct(contra, obs), pct(wrong, obs), fmtDur(perEvent))
	}

	obs, contra, wrong, perEvent := statePositions(els, truth)
	tab.AddRow("explicit-state", obs, pct(contra, obs), pct(wrong, obs), fmtDur(perEvent))
	return tab
}

// windowPositions evaluates the window paradigm: at each window close,
// every RoomEntry in the window is "valid", so a visitor's rooms are all
// rooms seen in the window. An observation is one (window, visitor) pair;
// it is contradictory if >1 room, wrong if the single room differs from
// ground truth at the window end.
func windowPositions(els []*element.Element, truth []workload.Stay, size temporal.Instant) (obs, contra, wrong int, perEvent float64) {
	w := window.NewTumblingTime(size)
	start := time.Now()
	handle := func(panes []window.Pane) {
		for _, p := range panes {
			rooms := map[string]map[string]bool{}
			for _, el := range p.Elements {
				if el.Stream != "RoomEntry" {
					continue
				}
				v := el.MustGet("visitor").MustString()
				if rooms[v] == nil {
					rooms[v] = map[string]bool{}
				}
				rooms[v][el.MustGet("room").MustString()] = true
			}
			probe := p.Window.End - 1
			for v, rs := range rooms {
				obs++
				if len(rs) > 1 {
					contra++
					continue
				}
				for r := range rs {
					if workload.TrueRoomAt(truth, v, probe) != r {
						wrong++
					}
				}
			}
		}
	}
	for _, el := range els {
		handle(w.Observe(el))
		handle(w.AdvanceTo(el.Timestamp))
	}
	handle(w.AdvanceTo(els[len(els)-1].Timestamp + size))
	perEvent = float64(time.Since(start).Nanoseconds()) / float64(len(els))
	return obs, contra, wrong, perEvent
}

// statePositions runs the explicit-state engine with the paper's REPLACE
// rule and probes the state at the same cadence (every minute of
// application time). One observation = one (probe, visitor) with a
// current position; contradiction is impossible by construction (the
// store holds one valid version per key), so we also verify correctness
// against ground truth.
func statePositions(els []*element.Element, truth []workload.Stay) (obs, contra, wrong int, perEvent float64) {
	e := core.New(core.StateFirst)
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room
RULE exit ON BuildingExit AS r THEN RETRACT position(r.visitor)`); err != nil {
		panic(err)
	}
	probeEvery := temporal.Instant(time.Minute)
	nextProbe := els[0].Timestamp + probeEvery
	start := time.Now()
	probe := func(at temporal.Instant) {
		for _, f := range e.Store().List(state.WithAttribute("position"), state.AsOfValidTime(at)) {
			obs++
			seen := map[string]bool{}
			seen[f.Value.MustString()] = true
			if len(seen) > 1 {
				contra++
				continue
			}
			if workload.TrueRoomAt(truth, f.Entity, at) != f.Value.MustString() {
				wrong++
			}
		}
	}
	for _, el := range els {
		for el.Timestamp >= nextProbe {
			probe(nextProbe - 1)
			nextProbe += probeEvery
		}
		if err := e.Process(stream.ElementMsg(el)); err != nil {
			panic(err)
		}
	}
	probe(els[len(els)-1].Timestamp)
	perEvent = float64(time.Since(start).Nanoseconds()) / float64(len(els))
	return obs, contra, wrong, perEvent
}
