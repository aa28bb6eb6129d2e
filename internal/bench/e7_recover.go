package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/state/segment"
)

// Cold-start recovery rows: how fast an n-element ingest's state comes
// back after a crash. The WAL row opens a durable directory that never
// flushed, so its whole history is the WAL chain and recovery replays
// every record — the only recovery the system had before the segment
// backend. The segment row opens a durable directory flushed at ~95% of
// the ingest: manifest + segment frames bulk-load (one head publication
// per lineage) and only the final ~5% of the WAL replays. The
// benchrunner gate requires the segment path >= 3x faster; both rows
// run in-process on the same machine and disk, so the ratio is
// hardware-independent in the same sense as the contention invariant.

// recoverReps is the cold starts one pass of a recovery row times: one
// start of the scale-0.25 directories takes 4-15 ms, and a row whose pass
// runs under its gate's 10 ms floor fails the gate as too brief to
// judge, so each pass sums enough starts to clear it more than twice over.
const recoverReps = 6

// recoverFlushFrac is the fraction of the ingest made durable in
// segments before the simulated crash; the rest is the WAL tail.
const recoverFlushFrac = 0.95

// newRecoveryEngine opens a durable engine over dir with background
// pulses disabled (threshold above any possible WAL length): only
// explicit FlushAt calls flush, so an abandoned engine cannot have a
// flush in flight racing the measured segment.Open calls on the same
// directory.
func newRecoveryEngine(dir string, n int) *core.Engine {
	e := core.New(core.WithPolicy(core.StateFirst),
		core.WithDurableDir(dir, segment.WithFlushEvery(2*n+16)),
		core.WithEmittedRetention(1024))
	if err := e.DeployRules(ingestRules); err != nil {
		panic(err)
	}
	return e
}

// buildRecoveryDirs ingests n elements twice under dir — once never
// flushed, leaving the full history in the WAL chain, once flushed at
// the last watermark before recoverFlushFrac — and kills both without
// Close (Abandon releases the lock and descriptors without the final
// flush, as process death would). It returns the two directories.
func buildRecoveryDirs(dir string, n int) (walDir, segDir string) {
	msgs := ingestMessages(n)
	walDir = filepath.Join(dir, "wal")
	segDir = filepath.Join(dir, "segments")

	walEngine := newRecoveryEngine(walDir, n)
	if err := walEngine.Run(msgs); err != nil {
		panic(err)
	}
	if walEngine.Durable().Info().Segments != 0 {
		panic("recover-wal dir flushed: its history must stay in the WAL chain")
	}
	walEngine.Durable().Abandon()

	split := len(msgs)
	for i := int(float64(len(msgs)) * recoverFlushFrac); i < len(msgs); i++ {
		if msgs[i].IsWatermark {
			split = i + 1
			break
		}
	}
	segEngine := newRecoveryEngine(segDir, n)
	if err := segEngine.Run(msgs[:split]); err != nil {
		panic(err)
	}
	if err := segEngine.Durable().FlushAt(segEngine.Watermark() - 1); err != nil {
		panic(err)
	}
	if err := segEngine.Run(msgs[split:]); err != nil {
		panic(err)
	}
	if segEngine.Durable().Info().Segments == 0 {
		panic("recover-segment dir has no segments: the flush failed")
	}
	segEngine.Durable().Abandon()
	return walDir, segDir
}

// recoverDir measures recoverReps cold starts of a durable directory:
// segment.Open — manifest, frame bulk-load, WAL replay. Each opened store
// is Abandoned, not Closed, off the timer: Close flushes, which would
// advance the durable cut and shrink the next pass's work, while
// Abandon just releases the lock and descriptors — and, by closing the
// WAL under its appender token, waits out the deferred tail rewrite so
// consecutive passes never race on the file.
func recoverDir(row, dir string, n int, opts ...segment.Option) time.Duration {
	var elapsed time.Duration
	for range recoverReps {
		runtime.GC() // each start begins on a collected heap, as a new process's would
		start := time.Now()
		d, err := segment.Open(dir, opts...)
		if err != nil {
			panic(err)
		}
		elapsed += time.Since(start)
		if keys := d.Mem().Stats().Keys; keys == 0 {
			panic(fmt.Sprintf("%s rebuilt nothing (n=%d)", row, n))
		}
		d.Abandon()
	}
	return elapsed
}

// buildFullFlushDir ingests n elements into a durable engine and
// flushes EVERYTHING before abandoning: the resulting directory is pure
// segment frames with an empty WAL tail, so a cold start is dominated
// by frame decode — the stage the parallel loader shards across
// workers. (The recover-segment dir keeps its 5% WAL tail instead; its
// serial tail replay would mask the load-parallelism ratio.)
func buildFullFlushDir(segDir string, n int) {
	e := newRecoveryEngine(segDir, n)
	if err := e.Run(ingestMessages(n)); err != nil {
		panic(err)
	}
	d := e.Durable()
	if err := d.FlushAt(d.Mem().Snapshot().At()); err != nil {
		panic(err)
	}
	d.Abandon()
}

// addRecoveryRows builds the recovery workloads once and appends the
// cold-start rows through add: full-WAL vs segment directory, then the
// parallel vs serial frame-load pair on a fully flushed directory.
func addRecoveryRows(add func(name string, ops int, measure func() time.Duration), scale float64) {
	n := scaleInt(100_000, scale)
	dir, err := os.MkdirTemp("", "recover-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	walDir, segDir := buildRecoveryDirs(dir, n)
	ops := n * recoverReps // elements recovered per pass
	add("e7/recover-wal", ops, func() time.Duration { return recoverDir("recover-wal", walDir, n) })
	add("e7/recover-segment", ops, func() time.Duration { return recoverDir("recover-segment", segDir, n) })

	parDir := filepath.Join(dir, "segments-full")
	buildFullFlushDir(parDir, n)
	add("e7/recover-par", ops, func() time.Duration {
		return recoverDir("recover-par", parDir, n, segment.WithLoadParallelism(0))
	})
	add("e7/recover-serial", ops, func() time.Duration {
		return recoverDir("recover-serial", parDir, n, segment.WithLoadParallelism(1))
	})
}
