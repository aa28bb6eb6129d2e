package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/window"
	"repro/internal/workload"
)

// E5StateGating measures the paper's efficiency claim (§1, §5): explicit
// state "can simplify the processing effort by limiting the amount of
// streaming data that needs to be analyzed depending on the specific
// state of the system". We mark a fraction of users as monitored in the
// state, then run an aggregation pipeline twice: ungated (every click is
// windowed and aggregated) and gated (a state condition drops clicks of
// unmonitored users before the window).
//
// Reported per monitored fraction: elements reaching the operator, total
// wall time, and the throughput ratio gated/ungated.
func E5StateGating(scale float64) *metrics.Table {
	cfg := workload.DefaultClickstream()
	cfg.Users = scaleInt(100, scale)
	cfg.SessionsPerUser = 6
	els, _ := workload.Clickstream(cfg)

	tab := metrics.NewTable("E5 — state-gated processing (§1, §5)",
		"monitored%", "mode", "seen", "processed", "wall", "events/s")

	for _, fraction := range []int{1, 10, 50, 100} {
		for _, gated := range []bool{false, true} {
			seen, processed, wall := runGating(els, cfg.Users, fraction, gated)
			mode := "ungated"
			if gated {
				mode = "gated"
			}
			rate := float64(len(els)) / wall.Seconds()
			tab.AddRow(fraction, mode, seen, processed, wall.Round(time.Microsecond).String(), rate)
		}
	}
	return tab
}

func runGating(els []*element.Element, users, fraction int, gated bool) (seen, processed uint64, wall time.Duration) {
	e := core.New(core.StateFirst)
	// Seed monitored users as background state (fraction% of users).
	monitored := users * fraction / 100
	for i := 0; i < monitored; i++ {
		e.Store().Replace(fmt.Sprintf("user%04d", i), "monitored", element.Bool(true), 0)
	}
	// A deliberately heavy operator: per-user click counts over sliding
	// windows — the cost the gate is supposed to avoid.
	agg := cql.NewQuery("Counts", "Click",
		window.NewSlidingTime(temporal.Instant(10*time.Minute), temporal.Instant(time.Minute)),
		false, cql.IStream,
		cql.NewAggregate([]string{"visitor"}, cql.AggSpec{Func: cql.Count, As: "n"}),
	)
	p := &core.Processor{Name: "counts", Source: "Click", Op: agg}
	if gated {
		g, err := lang.ParseExpr("EXISTS monitored(e.visitor)")
		if err != nil {
			panic(err)
		}
		p.Gate = g
	}
	if err := e.DeployProcessor(p); err != nil {
		panic(err)
	}
	msgs := stream.WithPeriodicWatermarks(els, temporal.Instant(time.Minute))
	start := time.Now()
	if err := e.Run(msgs); err != nil {
		panic(err)
	}
	wall = time.Since(start)
	st := e.Stats()[0]
	return st.Seen, st.Processed, wall
}
