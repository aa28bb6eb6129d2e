package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/workload"
)

// E10RuleOverhead is the ablation for the "different abstractions"
// benefit of §3.2: separating state management into a declarative rule
// language must not price the abstraction out of the hot path. We apply
// the same state transition (the security REPLACE rule) four ways —
// direct store API, compiled rule set, rule set with a WHERE filter, and
// the full engine — and compare per-event cost. The gap between rows is
// the interpretation overhead of each layer.
func E10RuleOverhead(scale float64) *metrics.Table {
	cfg := workload.DefaultBuilding()
	cfg.Visitors = scaleInt(cfg.Visitors*3, scale)
	els, _ := workload.Building(cfg)
	entries := make([]*element.Element, 0, len(els))
	for _, el := range els {
		if el.Stream == "RoomEntry" {
			entries = append(entries, el)
		}
	}

	tab := metrics.NewTable("E10 — rule-engine overhead ablation (§3.2)",
		"layer", "events", "wall", "ns/event", "events/s")
	addRow := func(layer string, wall time.Duration) {
		n := len(entries)
		tab.AddRow(layer, n, wall.Round(time.Microsecond).String(),
			fmtDur(float64(wall.Nanoseconds())/float64(n)),
			float64(n)/wall.Seconds())
	}

	// Warm-up pass so the first measured layer doesn't pay cold-cache
	// costs the later layers avoid.
	warm := state.NewStore()
	for _, el := range entries {
		visitor, _ := el.Get("visitor")
		room, _ := el.Get("room")
		_ = warm.Replace(visitor.MustString(), "position", room, el.Timestamp)
	}

	// Layer 0: hand-coded store access (the floor).
	st := state.NewStore()
	start := time.Now()
	for _, el := range entries {
		visitor, _ := el.Get("visitor")
		room, _ := el.Get("room")
		if err := st.Replace(visitor.MustString(), "position", room, el.Timestamp); err != nil {
			panic(err)
		}
	}
	addRow("direct-store", time.Since(start))

	// Layer 1: compiled rule set.
	set, err := rules.ParseSet(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`)
	if err != nil {
		panic(err)
	}
	st = state.NewStore()
	start = time.Now()
	for _, el := range entries {
		if _, err := set.Apply(el, st); err != nil {
			panic(err)
		}
	}
	addRow("rule-set", time.Since(start))

	// Layer 2: rule set with a WHERE filter (expression evaluation on
	// every event).
	set, err = rules.ParseSet(`
RULE position ON RoomEntry AS r WHERE r.room != 'nowhere'
THEN REPLACE position(r.visitor) = r.room`)
	if err != nil {
		panic(err)
	}
	st = state.NewStore()
	start = time.Now()
	for _, el := range entries {
		if _, err := set.Apply(el, st); err != nil {
			panic(err)
		}
	}
	addRow("rule-set+where", time.Since(start))

	// Layer 3: full engine (watermarks, policy dispatch, processors off).
	e := core.New(core.StateFirst)
	if err := e.DeployRules(`
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room`); err != nil {
		panic(err)
	}
	msgs := stream.FromElements(entries)
	start = time.Now()
	if err := e.Run(msgs); err != nil {
		panic(err)
	}
	addRow("engine", time.Since(start))

	return tab
}
