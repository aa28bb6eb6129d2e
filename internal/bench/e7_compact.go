package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/state/segment"
	"repro/internal/temporal"
)

// Compaction and segmented-WAL rows (PR 9).
//
// e7/wal-truncate/{tail-1x,tail-8x} time Log.TruncateBefore over WAL
// chains holding 1x vs 8x the records in the SAME number of files (the
// rotation threshold scales with the record count). Truncation is
// whole-file drops, so its cost is O(files), independent of how many
// records those files hold — the benchrunner gate bounds the 8x/1x
// ratio, which an O(records) in-place tail rewrite would blow past.
//
// e7/compact-reclaim/{unmerged,merged} open the same durable directory
// before and after a full Compact. Ops carries the catalog's FrameSlots
// at restart — the deterministic measure of restart load — and the gate
// requires the merged count at or below half the unmerged one.

// walTruncateRecords is the 1x-leg record count; the 8x leg writes
// eight times as many into the same number of files.
const walTruncateRecords = 20_000

// walTruncateSteps is how many TruncateBefore calls each pass times,
// walking the cut across the chain.
const walTruncateSteps = 16

// walTruncateChain measures one pass: build a segmented WAL of records
// mutations rotated at rotateBytes, then time walTruncateSteps
// truncation calls sweeping the cut from front to back.
func walTruncateChain(records int, rotateBytes int64) time.Duration {
	dir, err := os.MkdirTemp("", "wal-truncate-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st := state.NewStore()
	l, _, err := state.RecoverWALDir(dir, st, temporal.MinInstant, rotateBytes)
	if err != nil {
		panic(err)
	}
	st.AttachLog(l)
	// Replace only stages its WAL write; committing each one writes one
	// frame per record, so the chain rotates at the configured size.
	for i := 1; i <= records; i++ {
		if err := st.Replace(fmt.Sprintf("e%04d", i%512), "v", element.Int(int64(i)),
			temporal.Instant(i)); err != nil {
			panic(err)
		}
		if err := st.Commit(); err != nil {
			panic(err)
		}
	}
	if files := l.Files(); files < 4 {
		panic(fmt.Sprintf("wal-truncate: chain too short to measure (%d files)", files))
	}

	start := time.Now()
	for k := 1; k <= walTruncateSteps; k++ {
		cut := temporal.Instant(records * k / walTruncateSteps)
		if err := l.TruncateBefore(cut); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)

	if l.DroppedFiles() == 0 {
		panic("wal-truncate: truncation dropped no files")
	}
	if err := l.Close(); err != nil {
		panic(err)
	}
	return elapsed
}

// addWALTruncateRows appends the two truncation legs. The workload is
// deliberately NOT scaled: the rows exist for their same-run ratio
// gate, which needs a chain deep enough for the clock to resolve —
// at -scale 0.25 a scaled chain would be a handful of files and pure
// noise. The fixed build is cheap (one in-memory store, one WAL).
func addWALTruncateRows(add func(name string, ops int, measure func() time.Duration)) {
	// ~8 KiB per file at the 1x leg keeps the file count identical
	// across legs while the record count varies 8x.
	add("e7/wal-truncate/tail-1x", walTruncateSteps, func() time.Duration {
		return walTruncateChain(walTruncateRecords, 8<<10)
	})
	add("e7/wal-truncate/tail-8x", walTruncateSteps, func() time.Duration {
		return walTruncateChain(8*walTruncateRecords, 64<<10)
	})
}

// compactReclaimRounds is how many flush generations the reclaim
// workload lays down; each rewrites every shared key, so all but the
// newest copy of the shared working set is dead weight.
const compactReclaimRounds = 8

// buildReclaimDir lays down compactReclaimRounds segments of
// reclaimUnique round-private + reclaimShared shared keys. Like the
// truncation rows, the workload is fixed rather than scaled: the gate
// compares deterministic frame-slot counts, which scaling would only
// shrink toward a handful of frames.
func buildReclaimDir(dir string) {
	const reclaimUnique, reclaimShared = 400, 3_600
	d, err := segment.Open(dir)
	if err != nil {
		panic(err)
	}
	db := d.Mem()
	tx := temporal.Instant(0)
	put := func(entity string) {
		tx++
		if err := db.Put(entity, "v", element.Int(int64(tx)),
			state.WithValidTime(tx), state.WithTransactionTime(tx)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < compactReclaimRounds; r++ {
		for i := 0; i < reclaimUnique; i++ {
			put(fmt.Sprintf("u%d-%05d", r, i))
		}
		for i := 0; i < reclaimShared; i++ {
			put(fmt.Sprintf("s%05d", i))
		}
		if err := d.FlushAt(tx); err != nil {
			panic(err)
		}
	}
	if err := d.Close(); err != nil {
		panic(err)
	}
}

// openReclaimDir measures one cold start of the reclaim directory and
// reports the catalog's frame-slot count alongside the elapsed time.
func openReclaimDir(dir string) (time.Duration, int) {
	start := time.Now()
	d, err := segment.Open(dir)
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	slots := d.Info().FrameSlots
	d.Abandon()
	return elapsed, slots
}

// addCompactReclaimRows builds the reclaim workload, measures the
// unmerged restart, compacts, and measures the merged restart. The rows
// carry FrameSlots as Ops — the deterministic restart-load figure the
// benchrunner gate compares.
func addCompactReclaimRows(rep *RegressionReport) {
	dir, err := os.MkdirTemp("", "compact-reclaim-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	buildReclaimDir(dir)

	measure := func(name string) {
		elapsed, slots := openReclaimDir(dir)
		for i := 1; i < 5; i++ {
			if again, _ := openReclaimDir(dir); again < elapsed {
				elapsed = again
			}
		}
		ns := float64(elapsed.Nanoseconds()) / float64(slots)
		rep.Results = append(rep.Results, Measurement{
			Name: name, Ops: slots, NsPerOp: ns, OpsPerSec: 1e9 / ns,
		})
	}
	measure("e7/compact-reclaim/unmerged")

	d, err := segment.Open(dir)
	if err != nil {
		panic(err)
	}
	if err := d.Compact(); err != nil {
		panic(err)
	}
	if info := d.Info(); info.Merges != 1 {
		panic(fmt.Sprintf("compact-reclaim: merge did not commit: %+v", info))
	}
	if err := d.Close(); err != nil {
		panic(err)
	}
	measure("e7/compact-reclaim/merged")
}
