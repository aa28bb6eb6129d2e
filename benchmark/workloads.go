package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/state/segment"
)

const (
	// setupReps is how often a pass sets up; setup_s is the median and
	// the last set-up is the one the timed phase runs on.
	setupReps = 3
	// roundBatches micro-batches (262,144 elements) make one closed-loop
	// ingest round: a fixed amount of work into a fresh engine, the same
	// on every commit. A durable round crosses 32 flushes and three merge
	// levels at the engine-default thresholds.
	roundBatches = 256
	// idleCorrections corrections (the asof class's targets), idleCycles
	// cycles of the query mix and idleBatches lock-step deliveries follow
	// each round's restart on ingest-*.
	idleCorrections = 8
	idleCycles      = 4
	idleBatches     = 32
	// recover_s is the median of several timed restarts wherever a
	// restart leaves the directory as it found it: recoverReps of
	// serve-mixed's few hundred MB, coldRestarts of serve-cold's small
	// preloaded directory, roundRestarts after each round of
	// ingest-durable.
	recoverReps   = 9
	coldRestarts  = 31
	roundRestarts = 2
	// walTailBatches is the WAL tail a timed restart replays (see
	// restartsAtRest): the most that stays below the engine-default flush
	// threshold.
	walTailBatches = 15
	// coldSensors x coldVersions readings are preloaded for serve-cold,
	// the last version flushed as coldSegments segments.
	coldSensors  = 6_000
	coldVersions = 10
	coldSegments = 64
)

// workload is one input shape with the script that drives it.
type workload struct {
	name, why string
	gen       genConfig
	durable   bool
	// serve runs the serve script (runServe) instead of ingest rounds;
	// cold preloads the directory and reopens it under a residency budget.
	serve, cold bool
}

var workloads = []*workload{
	{
		name: "ingest-mem",
		why:  "in-memory, parallelism 1, closed loop: core+rules+state do all the work; durability, query and fan-out changes predict no change here",
		gen:  genConfig{sensors: 10_000, displace: true},
	},
	{
		name:    "ingest-durable",
		why:     "same input into a durable dir, crash-stop and reopen: WAL, flush, merge and fsync dominate; recovered state must equal ingest-mem's",
		gen:     genConfig{sensors: 10_000, displace: true},
		durable: true,
	},
	{
		name:    "serve-mixed",
		why:     "open-loop 12.5k el/s ingest with corrections while HTTP reads and one SSE subscriber run: server, query, resident scan and subscribe do the work",
		gen:     genConfig{sensors: 5_000, zipf: true},
		durable: true,
		serve:   true,
	},
	{
		name:    "serve-cold",
		why:     "same load on a preloaded dir reopened with 1/8 residency budget: reads go through the cold gather and preads, writes fault lineages in",
		gen:     genConfig{sensors: coldSensors, zipf: true},
		durable: true,
		serve:   true,
		cold:    true,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// measured is everything one pass measured, before it is reduced to the
// named metrics.
type measured struct {
	setup   []float64 // seconds, one per set-up
	eps     []float64 // elements/s inside the engine, one per ingest round (or one for a serve phase)
	ack     lat       // the batch_ack samples of the workload's ingest phase
	ackBase lat       // the same with span recording paused (traced pass)
	serve   serveOut
	recover []float64 // seconds
	peakRSS float64
	digest  uint64 // reference digest at the end of the ingest phase
	// elements counts the readings of the timed phase, bulkElements those
	// of its closed-loop rounds, preloaded those of serve-cold's set-up.
	elements, bulkElements, preloaded int64
	layer                             values // per-layer counters gathered along the way
}

// setupState is what a set-up hands to the timed phase.
type setupState struct {
	g      *generator
	f      *fixture // serve-mixed: the served durable engine
	dir    string
	budget int64 // serve-cold: the residency budget for the reopen
}

func (s *setupState) discard(x *env) {
	if s == nil {
		return
	}
	if s.f != nil {
		x.crash(s.f)
	}
	removeAll(s.dir)
}

// runWorkload sets up setupReps times, then runs the timed phase on the
// last set-up.
func (x *env) runWorkload(wl *workload) (*measured, error) {
	if err := os.MkdirAll(x.runDir, 0o755); err != nil {
		return nil, err
	}
	m := &measured{layer: values{}}
	for i := 0; i < setupReps; i++ {
		x.st.discard(x)
		start := time.Now()
		var err error
		if x.st, err = x.setUp(wl); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
	}
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := startRSS()
	run := runIngest
	if wl.serve {
		run = runServe
	}
	err := run(x, wl, m)
	rss.done()
	m.peakRSS = rss.peak
	runtime.ReadMemStats(&ms1)
	m.layer["runtime.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m.layer["runtime.heap_mb"] = rss.peakHeap
	return m, err
}

// setUp does everything before the timed phase — generator tables, a
// warm-up of the ingest and serving paths, and the workload's starting
// state — on the plain filesystem with tracing off.
func (x *env) setUp(wl *workload) (*setupState, error) {
	defer x.untraced()()
	if err := x.warmUp(wl); err != nil {
		return nil, err
	}
	cfg := wl.gen
	cfg.sensors = x.scaled(cfg.sensors, 64)
	st := &setupState{g: newGenerator(x.seed, cfg)}
	var err error
	switch {
	case wl.cold:
		st.dir = x.newDir()
		st.budget, err = x.preload(st.dir, st.g)
	case wl.serve:
		st.dir = x.newDir()
		var eng *core.Engine
		if eng, err = x.newEngine(st.dir, 0); err == nil {
			st.f, err = x.serve(eng)
		}
	}
	return st, err
}

// warmUp runs a short stretch of the workload's own paths on a scratch
// engine, so lazy initialisation in the runtime, the HTTP stack and the
// engine happens before anything is timed.
func (x *env) warmUp(wl *workload) error {
	dir := ""
	if wl.durable {
		dir = x.newDir()
		defer removeAll(dir)
	}
	cfg := wl.gen
	cfg.sensors = x.scaled(cfg.sensors, 64)
	g := newGenerator(x.seed, cfg)
	eng, err := x.newEngine(dir, 0)
	if err != nil {
		return err
	}
	defer eng.Close()
	n := x.scaled(16, 2)
	if _, err := x.bulkRound(eng, g, n); err != nil {
		return err
	}
	f, err := x.serve(eng)
	if err != nil {
		return err
	}
	defer f.stop()
	_, err = x.servePhase(f, g, time.Duration(n)*batchPeriod)
	return err
}

// preload builds serve-cold's starting directory: coldVersions passes
// over every sensor, the last one flushed in coldSegments pieces so each
// segment holds a contiguous sensor range whose values share a narrow
// envelope. It returns the residency budget for the reopen: 1/8 of the
// preload's resident bytes.
func (x *env) preload(dir string, g *generator) (int64, error) {
	// Merging is switched off for the preload only, so all coldSegments
	// level-0 segments survive until the timed engine opens them.
	eng, err := x.newEngine(dir, 0, segment.WithCompactionFanout(1<<20),
		segment.WithCompactionLevelBytes(0), segment.WithFlushEvery(1<<30))
	if err != nil {
		return 0, err
	}
	sensors := g.cfg.sensors
	for v := 0; v < coldVersions; v++ {
		// Preloaded values rise with the sensor index: the top 0.1% of
		// sensors match the select, and a segment's value envelope tells
		// whether it can hold a match.
		value := func(s int) float64 {
			return (float64(s) + float64(v)/coldVersions) * 100 / float64(sensors)
		}
		pieces := 1
		if v == coldVersions-1 {
			pieces = coldSegments
		}
		for p := 0; p < pieces; p++ {
			from, to := p*sensors/pieces, (p+1)*sensors/pieces
			for ; from < to; from += batchSize {
				end := from + batchSize
				if end > to {
					end = to
				}
				if err := eng.Run(g.sequential(from, end, value)); err != nil {
					return 0, err
				}
			}
			if pieces > 1 {
				if err := eng.Durable().Flush(); err != nil {
					return 0, err
				}
			}
		}
	}
	budget := eng.Durable().Info().ResidentBytes / 8
	return budget, eng.Close()
}

// runIngest is the script of ingest-mem and ingest-durable: identical
// rounds for the whole run, each a fixed amount of closed-loop ingest
// into a fresh engine from the same seeded input, then the restart, then
// — on the restarted, otherwise idle engine — the output check, the
// query mix and lock-step deliveries. ingest-durable restarts by
// crash-stop and reopen. ingest-mem has no directory to reopen: its
// restart is what an in-memory engine's restart is, the constructor plus
// the replay of the round's input, so its recover_s is the round's time
// in the engine until the first answer.
func runIngest(x *env, wl *workload, m *measured) error {
	total := time.Duration(x.seconds * float64(time.Second))
	batches := x.scaled(roundBatches, 8)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < total; round++ {
		g := newGenerator(x.seed, x.st.g.cfg)
		dir := ""
		if wl.durable {
			dir = x.newDir()
		}
		// Round 0 of a traced pass runs with span recording paused: the
		// baseline of trace.overhead_ratio.
		x.tr.pause(round == 0)
		built := time.Now()
		eng, err := x.newEngine(dir, 0)
		if err != nil {
			return err
		}
		restart := time.Since(built)
		out, err := x.bulkRound(eng, g, batches)
		x.tr.pause(false)
		if err != nil {
			return err
		}
		if round == 0 && x.tr != nil {
			m.ackBase = out.ack
		} else {
			m.eps = append(m.eps, float64(out.elements)/out.inEngine.Seconds())
			m.ack.ms = append(m.ack.ms, out.ack.ms...)
		}
		m.elements += int64(out.elements)
		m.bulkElements += int64(out.elements)
		m.layer.add("stream.reorder_ns", float64(out.reorderNs))
		m.layer.add("stream.late_total", float64(out.late))
		x.verifyCounters(eng, g.ref.refCounts, "after ingest")
		m.digest = g.ref.digest()

		var f *fixture
		if wl.durable {
			// Crash-stop: no final flush. Every acked write must be
			// readable from the directory alone.
			x.gatherDurable(eng, m)
			o := x.tr.begin("segment.abandon", nil)
			eng.Durable().Abandon()
			o.end()
			if f, _, err = x.openServing(dir, 0); err != nil {
				return fmt.Errorf("reopen after crash: %w", err)
			}
		} else {
			served := time.Now()
			if f, err = x.serveUntilAnswer(eng, nil); err != nil {
				return err
			}
			restart += out.inEngine + time.Since(served)
			m.recover = append(m.recover, restart.Seconds())
		}
		x.verify(f.query, g.ref, "after restart")

		before := m.serve.elements
		if err := x.idlePhase(f, g, idleCycles, x.scaled(idleBatches, 4), &m.serve); err != nil {
			return err
		}
		m.elements += int64(m.serve.elements - before)
		x.verify(f.query, g.ref, "after idle phase")
		x.gatherServing(f, m)
		x.gatherDurable(f.eng, m)
		last := time.Since(start) >= total
		if last && x.tr != nil {
			x.probes(f.eng, g, m)
		}
		f.stop()
		if wl.durable {
			if f, err = x.restartsAtRest(f.eng, dir, g, roundRestarts, m); err != nil {
				return err
			}
			x.verify(f.query, g.ref, "restarted at rest")
			f.stop()
			if err := x.closeDurable(f.eng, dir, m, true); err != nil {
				return err
			}
		}
		runtime.GC() // return the round's heap before the next one is timed
	}
	return nil
}

// restartsAtRest times reps restarts of a durable directory brought to
// a fixed state first. Where the flusher and merger stand when load
// stops or a crash hits is chance — a restart may find a WAL tail of 0
// or of 8,000 records — so eng is closed cleanly, a second engine
// appends walTailBatches micro-batches and crash-stops, and every timed
// restart then loads the whole flushed state and replays the same
// number of records.
func (x *env) restartsAtRest(eng *core.Engine, dir string, g *generator, reps int, m *measured) (*fixture, error) {
	if err := x.closeDurable(eng, dir, m, false); err != nil {
		return nil, err
	}
	tail, err := x.newEngine(dir, 0)
	if err != nil {
		return nil, err
	}
	for b := 0; b < walTailBatches; b++ {
		x.attempt(1)
		if _, err := x.runBatch(tail, g.next(false)); err != nil {
			return nil, err
		}
	}
	tail.Durable().Abandon()
	return x.restarts(dir, 0, reps, m)
}

// restarts times reps reopenings of dir, each of a directory a
// crash-stop left behind, and returns the last one, still serving.
func (x *env) restarts(dir string, budget int64, reps int, m *measured) (*fixture, error) {
	var f *fixture
	for i := 0; i < reps; i++ {
		if f != nil {
			x.crash(f)
		}
		// A restarted process starts with an empty heap: collect the
		// previous engine before the clock starts.
		runtime.GC()
		var (
			rec time.Duration
			err error
		)
		if f, rec, err = x.openServing(dir, budget); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		m.recover = append(m.recover, rec.Seconds())
	}
	return f, nil
}

// runServe is the script of serve-mixed and serve-cold: the serve phase
// for the whole run on the set-up's directory, with the restart timed
// where the directory is at rest — before the load on serve-cold's
// preloaded, budgeted directory, and on serve-mixed after the load, a
// clean close and a WAL tail of fixed length.
func runServe(x *env, wl *workload, m *measured) error {
	total := time.Duration(x.seconds * float64(time.Second))
	st := x.st
	g, f, dir := st.g, st.f, st.dir
	var err error
	if f == nil { // serve-cold: the directory was preloaded and closed
		if f, err = x.restarts(dir, st.budget, coldRestarts, m); err != nil {
			return err
		}
		x.verify(f.query, g.ref, "preloaded")
	} else if x.cfs != nil {
		// The set-up opened the engine on the plain filesystem; the traced
		// pass reopens the still-empty directory on the counting one.
		x.crash(f)
		x.tr.pause(true)
		f, _, err = x.openServing(dir, 0)
		x.tr.pause(false)
		if err != nil {
			return err
		}
	}

	base := g.ref.refCounts
	if m.serve, err = x.servePhase(f, g, total); err != nil {
		return err
	}
	m.elements += int64(m.serve.elements)
	m.preloaded = g.ref.elements - int64(m.serve.elements)
	m.eps = []float64{float64(m.serve.elements) / m.serve.inEngine.Seconds()}
	m.ack, m.ackBase = m.serve.ack, m.serve.ackBase
	x.verifyCounters(f.eng, g.ref.refCounts.since(base), "after serve")
	x.verify(f.query, g.ref, "after serve")
	m.digest = g.ref.digest()
	x.gatherServing(f, m)
	x.gatherDurable(f.eng, m)
	if x.tr != nil {
		x.probes(f.eng, g, m)
	}
	f.stop()
	if wl.cold {
		return x.closeDurable(f.eng, dir, m, true)
	}

	if f, err = x.restartsAtRest(f.eng, dir, g, recoverReps, m); err != nil {
		return err
	}
	x.verify(f.query, g.ref, "restarted at rest")
	f.stop()
	return x.closeDurable(f.eng, dir, m, true)
}

// closeDurable flushes and closes a durable engine and keeps the close
// time; with remove it also keeps the directory's final size and deletes
// the directory.
func (x *env) closeDurable(e *core.Engine, dir string, m *measured, remove bool) error {
	d, err := x.closeEngine(e)
	m.layer.max("segment.close_ms", float64(d)/1e6)
	if remove {
		m.layer.add("disk_bytes", float64(dirBytes(dir)))
		removeAll(dir)
	}
	return err
}

func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
