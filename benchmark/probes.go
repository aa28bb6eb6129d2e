package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/stream"
)

// gatherDurable adds a durable engine's segment.Info counters to the
// pass. Cumulative counters add up over the engines of a pass; the
// shape of the directory is the last engine's.
func (x *env) gatherDurable(e *core.Engine, m *measured) {
	d := e.Durable()
	if d == nil {
		return
	}
	info := d.Info()
	m.layer.add("segment.merges_total", float64(info.Merges))
	m.layer.add("segment.merge_bytes_reclaimed", float64(info.MergeBytesReclaimed))
	m.layer.add("segment.dropped_appends", float64(info.DroppedAppends))
	m.layer.add("segment.flush_retries", float64(info.FlushRetries))
	m.layer.add("segment.scan_frames", float64(info.ScanFrames))
	m.layer.add("scan_frames_pruned", float64(info.ScanFramesPruned))
	l0, deeper := 0, 0
	for level, n := range info.SegmentsPerLevel {
		if level == 0 {
			l0 = n
		} else {
			deeper += n
		}
	}
	m.layer["segment.segments_l0"] = float64(l0)
	m.layer["segment.segments_l1plus"] = float64(deeper)
	m.layer["segment.resident_bytes"] = float64(info.ResidentBytes)
	m.layer["segment.evicted_lineages"] = float64(info.EvictedLineages)
}

// gatherServing adds the counters of the serving side: Store.Stats,
// Broker.Metrics and /stats.
func (x *env) gatherServing(f *fixture, m *measured) {
	m.layer["state.records_total"] = float64(f.eng.Store().Stats().Records)
	bm := f.srv.Broker().Metrics()
	m.layer["subscribe.fanout_mean_us"] = float64(bm.FanoutMean) / 1e3
	m.layer["subscribe.fanout_p99_us"] = float64(bm.FanoutP99) / 1e3
	m.layer.add("subscribe.drops_total", float64(bm.Drops))
	m.layer.add("subscribe.resyncs_total", float64(bm.Resyncs))
	m.layer.add("subscribe.skipped_batches_total", float64(bm.SkippedBatches))
	x.attempt(1)
	if bm.Drops+bm.Resyncs+bm.SkippedBatches > 0 {
		x.fail("broker dropped %d, resynced %d, skipped %d batches", bm.Drops, bm.Resyncs, bm.SkippedBatches)
	}
	if st, err := f.query.Stats(); err == nil {
		if n := st["queries_prepared"] + st["plan_cache_hits"]; n > 0 {
			m.layer["server.plan_cache_hit_ratio"] = float64(st["plan_cache_hits"]) / float64(n)
		}
		m.layer.add("server.shed_total", float64(st["shed_requests"]))
	}
}

// meanOf times fn n times and returns the mean in microseconds.
func meanOf(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}

// probes measures, on the quiesced system after the timed phase, the
// layers the harness cannot see from outside a running request: the
// rules' apply entry point and Store.PutBatch on scratch stores, the
// engine's allocations, and the query path taken apart — prepare,
// snapshot pin, exec per class, and the partitioned scan with its
// ScanStats.
func (x *env) probes(e *core.Engine, g *generator, m *measured) {
	// The same micro-batches through rules.Set.Apply and Store.PutBatch.
	scratch := newGenerator(x.seed, g.cfg)
	var batches [][]stream.Message
	for i := 0; i < 16; i++ {
		batches = append(batches, scratch.next(false))
	}
	n := float64(16 * batchSize)
	if set, err := rules.ParseSet(rulesSrc); err == nil {
		st := state.NewStore()
		start := time.Now()
		for _, b := range batches {
			for _, msg := range b[:batchSize] {
				if _, err := set.Apply(msg.El, st); err != nil {
					x.fail("rules probe: %v", err)
				}
			}
		}
		m.layer["rules.apply_ns_per_el"] = float64(time.Since(start)) / n
	}
	st := state.NewStore()
	puts := make([]state.BatchPut, 0, batchSize)
	var putNs time.Duration
	for _, b := range batches {
		puts = puts[:0]
		for _, msg := range b[:batchSize] {
			puts = append(puts, state.BatchPut{Entity: msg.El.MustGet("sensor").MustString(),
				Attr: attrName, Value: msg.El.MustGet("celsius"), At: msg.El.Timestamp})
		}
		start := time.Now()
		if err := st.PutBatch(puts); err != nil {
			x.fail("putbatch probe: %v", err)
		}
		putNs += time.Since(start)
	}
	m.layer["state.putbatch_ns_per_el"] = float64(putNs) / n

	// Allocations per element of a fresh in-memory engine on the same
	// pre-generated batches: the generator's own allocations stay out.
	restore := x.untraced()
	if eng, err := x.newEngine("", 0); err == nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, b := range batches {
			if err := eng.Run(b); err != nil {
				x.fail("allocs probe: %v", err)
			}
		}
		runtime.ReadMemStats(&m1)
		m.layer["core.allocs_per_el"] = float64(m1.Mallocs-m0.Mallocs) / n
	}
	restore()

	// The query path on the workload's own engine.
	store := e.Store()
	asof := asofText(1, 1)
	if c, ok := g.ref.pickCorrection(0); ok {
		asof = asofText(c.from, c.tt)
	}
	m.layer["query.prepare_us"] = meanOf(50, func() {
		_, _ = query.Prepare(selectText)
		_, _ = query.Prepare(asof)
	}) / 2
	m.layer["state.snapshot_pin_us"] = meanOf(50, func() { _ = store.Snapshot() })
	exec := func(text string, reps int) (us float64, rows int) {
		p, err := query.Prepare(text)
		if err != nil {
			x.fail("query probe: %v", err)
			return 0, 0
		}
		us = meanOf(reps, func() {
			res, err := p.Exec(query.ExecEnv{Store: store.Snapshot(), Now: e.Watermark()})
			if err != nil {
				x.fail("query probe: %v", err)
				return
			}
			rows = len(res.Rows)
		})
		return us, rows
	}
	var selRows int
	m.layer["query.exec_select_us"], selRows = exec(selectText, 10)
	m.layer["query.exec_scan_us"], _ = exec(scanText, 3)
	m.layer["query.exec_asof_us"], _ = exec(asof, 10)

	spec := state.ScanSpec{
		Opts:   []state.ReadOpt{state.WithAttribute(attrName)},
		Bounds: state.ValueBounds{Min: selectAbove, HasMin: true, MinExcl: true},
	}
	var stats state.ScanStats
	m.layer["state.scan_us"] = meanOf(10, func() { _, stats = store.Snapshot().ScanPartitioned(spec) })
	m.layer["state.scan_lineages"] = float64(stats.Lineages)
	m.layer["state.scan_partitions"] = float64(stats.Partitions)
	if resident := stats.Lineages - stats.ColdLineages; resident > 0 {
		m.layer["state.scan_index_pruned_ratio"] = float64(stats.IndexPruned) / float64(resident)
	}
	if selRows > 0 {
		m.layer["query.rows_examined_per_row"] = float64(stats.Lineages-stats.IndexPruned) / float64(selRows)
	}
}
