package bench

import (
	"errors"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/state/segment"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

// Fault-layer cost rows: what the injection seam and the degraded mode
// cost when nothing is actually failing.
//
// The flush pair runs an identical ingest-and-flush workload through the
// production vfs.OS passthrough and through an empty FaultFS wrap (rules
// armed: none) — the per-op dispatch cost of keeping fault injection
// always-pluggable. The benchrunner gate bounds the wrap at
// vfsOverheadMax of the plain leg.
//
// The ingest pair runs the end-to-end pipeline against a durable engine
// healthy vs latched degraded (a scripted WAL fault trips dropping mode
// before the timer starts): degraded ingest sheds the WAL encode+write
// per element, so it must stay within degradedIngestMax of the healthy
// leg — degraded mode is a pressure valve, never a new bottleneck.

// flushBatches is how many FlushAt cycles the flush rows spread their
// writes over, so the measured path covers segment creation, manifest
// commit, and WAL truncation — not just WAL appends.
const flushBatches = 8

// flushThroughput writes ops versions over keys lineages into a fresh
// durable store on fs, flushing flushBatches times along the way, and
// returns the wall-clock time for the whole ingest-and-flush sequence.
func flushThroughput(fs vfs.FS, keys, ops int) time.Duration {
	dir, err := os.MkdirTemp("", "flush-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// Background pulses disabled: the explicit FlushAt calls below are the
	// only flushes, so both legs do identical work.
	opts := []segment.Option{segment.WithFlushEvery(2*ops + 16)}
	if fs != nil {
		opts = append(opts, segment.WithFS(fs))
	}
	d, err := segment.Open(dir, opts...)
	if err != nil {
		panic(err)
	}
	names := keyNames(keys)
	per := ops / flushBatches
	i := 0
	start := time.Now()
	for f := 0; f < flushBatches; f++ {
		for j := 0; j < per; j++ {
			if err := d.Mem().Replace(names[i%keys], "value", element.Int(int64(i)),
				temporal.Instant(i+1)); err != nil {
				panic(err)
			}
			i++
		}
		if err := d.FlushAt(d.Mem().Snapshot().At()); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	d.Abandon()
	return elapsed
}

// ingestDurableRun runs n pipeline elements into a durable engine and
// returns the timed span. With degrade set, a scripted fault kills the
// first WAL write during an untimed prelude batch, so the engine enters
// degraded mode (WAL dropping, flushes parked) before the timer starts
// and the measured span is pure degraded-mode ingest.
func ingestDurableRun(n int, degrade bool) time.Duration {
	dir, err := os.MkdirTemp("", "ingest-durable-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	pre := 0
	opts := []segment.Option{segment.WithFlushEvery(2*n + ingestWMEvery + 16)}
	if degrade {
		pre = ingestWMEvery + 1
		ffs := vfs.NewFaultFS(vfs.OS)
		ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: "wal.*", Count: 1,
			Err: errors.New("bench: scripted wal fault")})
		opts = append(opts, segment.WithFS(ffs))
	}
	msgs := ingestMessages(n + pre)
	e := core.New(core.WithPolicy(core.StateFirst),
		core.WithDurableDir(dir, opts...), core.WithEmittedRetention(1024))
	if err := e.DeployRules(ingestRules); err != nil {
		panic(err)
	}
	if degrade {
		// The prelude's first state mutation hits the scripted fault and
		// latches degraded mode on the appending goroutine — off the timer.
		if err := e.Run(msgs[:pre]); err != nil {
			panic(err)
		}
		if e.Durable().Degraded() == nil {
			panic("ingest-degraded: the scripted WAL fault did not latch degraded mode")
		}
	}
	start := time.Now()
	if err := e.Run(msgs[pre:]); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	// Release the lock and descriptors without a parting flush, which
	// would only add noise after the timed span.
	e.Durable().Abandon()
	return elapsed
}

// addFaultRows appends the fault-layer cost rows through add.
func addFaultRows(add func(name string, ops int, measure func() time.Duration), scale float64) {
	keys := scaleInt(4_096, scale)
	flushOps := scaleInt(48_000, scale)
	add("e7/flush-os", flushOps, func() time.Duration {
		return flushThroughput(vfs.OS, keys, flushOps)
	})
	add("e7/flush-vfs-overhead", flushOps, func() time.Duration {
		// A fresh wrap per pass: rule/stat state never accumulates.
		return flushThroughput(vfs.NewFaultFS(vfs.OS), keys, flushOps)
	})

	n := scaleInt(100_000, scale)
	add("e7/ingest-durable", n, func() time.Duration {
		return ingestDurableRun(n, false)
	})
	add("e7/ingest-degraded", n, func() time.Duration {
		return ingestDurableRun(n, true)
	})
}
