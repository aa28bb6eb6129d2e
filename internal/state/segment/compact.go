// Leveled segment compaction: the maintenance loop's merge transition
// turns the flush-append segment chain into a log-structured engine.
//
// Flushes append level-0 segments. Once a contiguous run of equal-level
// segments reaches the fanout, a merge rewrites the run into one
// segment at the next level; a single segment whose dead-frame fraction
// crosses the garbage threshold is rewritten in place at its own level.
// A merge reclaims two kinds of garbage: frames a newer segment
// superseded, and tombstone frames no older segment still needs (nothing
// left to shadow). It never drops a record from a live frame: history,
// superseded beliefs included, is never destroyed.
//
// The merge protocol mirrors the flush protocol exactly:
//
//  1. Build the merged segment OUTSIDE the store lock, newest victim
//     first, rate-limited (flushes and evictions run in the pauses) and
//     interruptible by Close. The output file is unreferenced until
//     commit — a crash mid-build leaves an orphan the next open removes.
//  2. Commit under the lock: re-check the victims still form the same
//     contiguous run in the current catalog (a concurrent flush may have
//     dropped a dead victim — then the merge aborts, never corrupts),
//     write the manifest (temp + rename: the single atomic commit
//     point), publish the new catalog, and unlink the victims. A crash
//     between rename and unlink leaves the victims as orphans.
//
// Victim frames all carry complete lineage snapshots at their segment's
// cut, so "newest frame wins wholesale" is the whole merge semantics —
// no record-level merging exists to get wrong.

package segment

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
)

// Compact synchronously merges the entire segment chain into one
// segment one level above the current maximum, reclaiming every dead
// frame and every unshadowed tombstone. It is the operator verb
// for "compact now"; the loop's merge transition does the same work
// incrementally. Compact waits for the step in flight, then runs its
// merge as a step of its own. Returns nil when there is nothing to merge.
func (d *Store) Compact() error {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	cat := d.cat.Load()
	if len(cat.segments) == 0 {
		return nil
	}
	maxLevel := 0
	for _, r := range cat.segments {
		maxLevel = max(maxLevel, r.level)
	}
	return d.mergeRange(cat, 0, len(cat.segments), maxLevel+1)
}

// selectVictims picks the next merge from a catalog: first the oldest
// contiguous run of equal-level segments that is ripe — by COUNT (>=
// fanout segments) or by BYTES (>= 2 segments whose combined file size
// reaches levelBytes * fanout^level; levelBytes <= 0 disables the byte
// trigger) — merged into the next level; else the oldest single segment
// whose dead-frame share reaches garbageFrac (rewritten at its own
// level; the dead > 0 requirement keeps a segment whose garbage is all
// still-shadowing tombstones from being rewritten over and over for no
// reclaim). The byte trigger is what makes selection size-aware: a run
// of two huge flush segments compacts as eagerly as four tiny ones,
// instead of counting the same as them. Returns lo == hi when nothing
// qualifies.
func selectVictims(cat *catalog, fanout int, garbageFrac float64, levelBytes int64) (lo, hi, level int) {
	segs := cat.segments
	if fanout < 2 {
		fanout = 2
	}
	for i := 0; i < len(segs); {
		j := i + 1
		runBytes := segs[i].size
		for j < len(segs) && segs[j].level == segs[i].level {
			runBytes += segs[j].size
			j++
		}
		if j-i >= fanout || (j-i >= 2 && levelBytes > 0 && runBytes >= levelCap(levelBytes, fanout, segs[i].level)) {
			return i, j, segs[i].level + 1
		}
		i = j
	}
	for i, r := range segs {
		n := len(r.index)
		if n >= minCompactFrames && int(r.live.Load()) < n && r.garbage() >= garbageFrac {
			return i, i + 1, r.level
		}
	}
	return 0, 0, 0
}

// levelCap is the byte budget of one level — levelBytes * fanout^level,
// saturating instead of overflowing for deep levels.
func levelCap(levelBytes int64, fanout, level int) int64 {
	cap := levelBytes
	for i := 0; i < level; i++ {
		if cap > (1<<62)/int64(fanout) {
			return 1 << 62
		}
		cap *= int64(fanout)
	}
	return cap
}

// mergeRange builds and commits one merge of cat.segments[lo:hi] into a
// segment at outLevel. cat is the catalog the victims were selected
// from; the commit re-validates against the current one. Aborts —
// concurrent-flush conflicts, shutdown — return nil; real failures
// count in Info.CompactionFailures and return the error. Callers hold
// stepMu.
func (d *Store) mergeRange(cat *catalog, lo, hi, outLevel int) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	seq := d.nextSeq
	d.nextSeq++ // reserved; an aborted merge leaves a harmless gap
	d.mu.Unlock()

	merged, err := d.buildMerge(cat, lo, hi, outLevel, seq)
	if err != nil {
		if errors.Is(err, errMergeAborted) {
			return nil
		}
		d.compactFails.Add(1)
		return err
	}
	return d.commitMerge(cat, lo, hi, merged)
}

// errMergeAborted signals a benign build abort: shutdown, or a victim
// unlinked under the builder by a concurrent flush.
var errMergeAborted = errors.New("segment: merge aborted")

// buildMerge writes the merged segment for cat.segments[lo:hi] without
// holding the store lock. Victims are walked newest→oldest so the first
// frame seen per key is its newest within the run; a key owned by a
// segment newer than the run is pure garbage and is skipped. The
// returned reader is nil when everything was reclaimed.
func (d *Store) buildMerge(cat *catalog, lo, hi, outLevel int, seq uint64) (*reader, error) {
	victims := cat.segments[lo:hi]
	name := fmt.Sprintf("seg-%08d.seg", seq)
	w, err := createSegment(d.fs, filepath.Join(d.dir, name), outLevel, &d.scanFrames)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	// throttle paces the build to compactRate bytes/second of output.
	// Its sleep is the loop's yield point (see pause).
	throttle := func() bool {
		if d.compactRate <= 0 {
			return true
		}
		ahead := time.Duration(float64(w.off)/float64(d.compactRate)*float64(time.Second)) - time.Since(start)
		return ahead <= 0 || d.pause(ahead)
	}

	seen := make(map[element.FactKey]bool)
	written := temporal.MinInstant // newest cut among victims = output cut
	for i := len(victims) - 1; i >= 0; i-- {
		r := victims[i]
		if r.cut > written {
			written = r.cut
		}
		img, err := r.image()
		if err != nil {
			w.abort()
			if errors.Is(err, fs.ErrNotExist) {
				// A concurrent flush found the victim dead and unlinked
				// it; the merge is stale, not broken.
				return nil, errMergeAborted
			}
			return nil, err
		}
		// Sorted key order makes the output deterministic for a given
		// victim set (map iteration is not).
		keys := make([]element.FactKey, 0, len(r.index))
		for key := range r.index {
			if !seen[key] {
				keys = append(keys, key)
			}
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].Attribute != keys[b].Attribute {
				return keys[a].Attribute < keys[b].Attribute
			}
			return keys[a].Entity < keys[b].Entity
		})
		for _, key := range keys {
			seen[key] = true
			if cat.ownedAt(hi, key) {
				continue // a newer segment owns the key: dead frame, reclaim
			}
			if !throttle() {
				w.abort()
				return nil, errMergeAborted
			}
			records, err := r.readLineageImage(img, key, r.index[key].off, new(state.ColdBuf))
			if err != nil {
				w.abort()
				return nil, err
			}
			if len(records) == 0 && !cat.ownedBefore(lo, key) {
				// A tombstone shadowing nothing: reclaim it outright.
				continue
			}
			if err := w.writeLineage(key, records); err != nil {
				w.abort()
				return nil, err
			}
		}
	}
	if len(w.index) == 0 {
		// Everything reclaimed: commit the victims away with no output.
		w.abort()
		return nil, nil
	}
	return w.finish(written)
}

// commitMerge publishes a built merge: re-validates the victims against
// the CURRENT catalog (they must still be the same contiguous run — a
// concurrent flush appends behind them or drops dead ones, never
// reorders), computes the merged segment's live count, commits the
// manifest, swaps the catalog, and unlinks the victims. merged may be
// nil (full reclaim).
func (d *Store) commitMerge(cat *catalog, lo, hi int, merged *reader) error {
	victims := cat.segments[lo:hi]
	abort := func() {
		if merged != nil {
			merged.f.Close()
			if err := d.fs.Remove(merged.path); err != nil {
				d.removeFails.Add(1)
			}
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		abort()
		return nil
	}
	cur := d.cat.Load()
	pos := findRun(cur.segments, victims)
	if pos < 0 {
		abort()
		return nil
	}

	nc := &catalog{durableTx: cur.durableTx}
	nc.segments = append(nc.segments, cur.segments[:pos]...)
	if merged != nil {
		nc.segments = append(nc.segments, merged)
	}
	nc.segments = append(nc.segments, cur.segments[pos+len(victims):]...)
	if merged != nil {
		// The merged segment owns exactly its keys no LATER segment (in
		// the new chain) re-wrote while the merge ran.
		live := 0
		for key := range merged.index {
			if !cur.ownedAt(pos+len(victims), key) {
				live++
			}
		}
		merged.live.Store(int64(live))
	}

	// A manifest failure does NOT unlink the merged output: a torn rename
	// may have committed the new manifest, which references it — the
	// victims are then the orphans. If the rename never happened the
	// output is the orphan instead. Either way the next open's orphan
	// sweep reconciles; unlinking here would race the ambiguity.
	if err := d.writeManifest(d.manifestFor(nc, d.mem.EvictedKeys())); err != nil {
		d.compactFails.Add(1)
		return err
	}
	d.publish(nc)

	var reclaimed int64
	for _, r := range victims {
		reclaimed += r.size
		// Unlinked, not closed: an in-flight reader holding the old
		// catalog may still pread them; the finalizer closes the
		// descriptor once unreachable (same posture as retired flush
		// segments).
		if err := d.fs.Remove(r.path); err != nil {
			d.removeFails.Add(1)
		}
	}
	if merged != nil {
		reclaimed -= merged.size
	}
	d.merges.Add(1)
	d.mergeReclaim.Add(reclaimed)
	return nil
}

// findRun locates victims as a contiguous identity run inside segs,
// returning its start index or -1.
func findRun(segs, victims []*reader) int {
	if len(victims) == 0 {
		return -1
	}
outer:
	for i := 0; i+len(victims) <= len(segs); i++ {
		for j, v := range victims {
			if segs[i+j] != v {
				continue outer
			}
		}
		return i
	}
	return -1
}
