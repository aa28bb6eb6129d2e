// Package segment is the durable, append-only backend of the state
// repository: committed lineage heads flush as immutable, checksummed
// segment files behind the state.StateDB / state.Reader seam, so derived
// state outlives the stream without replaying the full WAL on boot.
//
// A segment.Store wraps the in-memory sharded store (the RAM working
// set, which keeps every read lock-free exactly as before) with a
// durable directory:
//
//	dir/
//	  MANIFEST          commit point: durable cut + live segment list
//	  seg-NNNNNNNN.seg  immutable segment files (see format.go)
//	  wal.NNNNNNNN      the segmented WAL chain: records newer than the
//	                    durable cut, rotated at a size threshold
//
// A flush is a pinned cut, exactly like a snapshot: FlushCut gathers the
// lineages touched since the previous flush, each as the record set
// believed at the pin, into one new segment file; the manifest commit
// (temp file + rename) then atomically advances the durable cut, and
// Log.TruncateBefore unlinks the whole WAL files the segments now cover.
// Recovery inverts it: load the manifest, bulk-load the newest frame of
// every key (state.LoadLineage — one head publication per lineage, no
// mutation replay, fanned across GOMAXPROCS shard-partitioned workers),
// then replay only the WAL tail. Every step is crash-atomic: a torn
// segment is an unreferenced orphan, a torn WAL tail record is dropped,
// and the manifest either renamed or it did not.
//
// The segment list is leveled, LSM-style: flushes append level-0
// segments, and merges (compact.go) rewrite contiguous runs into the
// next level, committed by the same manifest rename. Flushes, evictions
// and merges run as prioritized transitions of one per-store
// maintenance loop (maintain.go), woken by Pulse.
//
// Reads resolve against RAM first and fall through to segment frames
// (pread + per-segment bitemporal envelope pruning) for lineages the RAM
// working set no longer holds — an evicted lineage keeps its durable
// history answerable. Writes go through the wrapped store unchanged, so
// watchers, rules, and group commits behave identically.
package segment

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

const (
	manifestName = "MANIFEST"
	lockName     = "LOCK"

	// manifestVersion guards the manifest wire format. Versions 2 and 3
	// added key sets (swept, evicted) that decoding now ignores: which
	// keys stay resident is the residency budget's choice at open, not
	// the catalog's. Older manifests still read.
	manifestVersion = 3
)

// manifestRec is the gob wire format of the MANIFEST file — the commit
// point of the durable directory.
type manifestRec struct {
	Version   int
	DurableTx temporal.Instant
	NextSeq   uint64
	Segments  []manifestSegment
}

// manifestSegment names one live segment file and its cut.
type manifestSegment struct {
	File  string
	CutTx temporal.Instant
}

// catalog is the immutable, atomically published view of the durable
// directory: readers load it once and resolve against it lock-free,
// exactly as store readers load published lineage heads. Segments are
// age-ordered, oldest first: a key's newest durable frame lives in the
// LAST segment whose index holds it, so reads probe newest→oldest.
type catalog struct {
	durableTx temporal.Instant
	segments  []*reader // age order, oldest first
	// none is the catalog's resolution of keys that have no frame in it,
	// made once, so a point read of a key never flushed allocates none.
	none atomic.Pointer[resolution]
}

// owner resolves the segment holding key's newest durable frame and the
// frame's offset, probing newest→oldest.
func (c *catalog) owner(key element.FactKey) (*reader, int64, bool) {
	for i := len(c.segments) - 1; i >= 0; i-- {
		if ref, ok := c.segments[i].index[key]; ok {
			return c.segments[i], ref.off, true
		}
	}
	return nil, 0, false
}

// ownedAt reports whether any segment at index from or later holds a
// frame for key — the "a newer segment owns it" probe of the live
// accounting and the merge.
func (c *catalog) ownedAt(from int, key element.FactKey) bool {
	for i := from; i < len(c.segments); i++ {
		if _, ok := c.segments[i].index[key]; ok {
			return true
		}
	}
	return false
}

// ownedBefore reports whether any segment older than index bound holds
// a frame for key — the merge's tombstone-elision probe: a tombstone
// with no older coverage protects nothing and can be reclaimed.
func (c *catalog) ownedBefore(bound int, key element.FactKey) bool {
	for i := 0; i < bound && i < len(c.segments); i++ {
		if _, ok := c.segments[i].index[key]; ok {
			return true
		}
	}
	return false
}

// Store is the durable segment-backed state store. It implements
// state.StateDB and state.Reader over a RAM working set (Mem) plus the
// segment files and WAL tail of its directory. All methods are safe for
// concurrent use; flushes run concurrently with reads and writes.
type Store struct {
	dir string
	mem *state.Store
	log *state.Log
	// fs is the filesystem seam every durable-path os.* call goes
	// through: vfs.OS in production, a vfs.FaultFS under chaos tests.
	fs vfs.FS

	flushEvery int
	retry      RetryPolicy
	budget     int64 // residency budget in estimated bytes (0: no eviction)

	// walRotate is the WAL rotation threshold in bytes (0 = the state
	// package default); loadPar caps the parallel cold-start workers
	// (0 = GOMAXPROCS, 1 = serial).
	walRotate int64
	loadPar   int

	// Merge knobs: the run length that enables a level merge, the garbage
	// fraction that enables a single-segment rewrite, the write-rate limit
	// in bytes/second (<= 0: unthrottled), and the level-0 byte budget of
	// size-aware victim selection (<= 0: runs merge on count alone).
	compactFanout  int
	compactGarbage float64
	compactRate    int64
	levelBytes     int64

	// cat is the published durable view; swapped after each flush.
	cat atomic.Pointer[catalog]

	// mu serializes flushes, manifest commits, and Close.
	mu      sync.Mutex
	nextSeq uint64
	closed  bool
	// closeOnce makes Close idempotent; closeErr is the first result.
	closeOnce sync.Once
	closeErr  error
	// unlock releases the directory lock taken at Open (single-owner
	// guard against two stores corrupting one directory).
	unlock func()

	// Maintenance loop state (maintain.go). Pulse raises pulsed and rings
	// wake; closing stops the loop (loopDone closes once it has) and ends
	// a merge's pause. flushMark is the log's Appended count when the last
	// flush pinned its cut (Open seeds minus the replayed tail). stepMu
	// admits one transition at a time and guards the rest: a failing
	// flush's backoff, the durable cut of the last sweep that evicted
	// nothing (Forever: none), and a catalog a merge failed to change.
	pulsed, flushMark       atomic.Int64
	wake, loopDone, closing chan struct{}
	stepMu                  sync.Mutex
	retryAt                 time.Time
	retryDelay              time.Duration
	retries                 int
	dryAt                   temporal.Instant
	staleCat                *catalog

	// errMu guards the bounded flush-transition error history (surfaced
	// joined by the next Flush/Close) and the latest cause (Info).
	errMu     sync.Mutex
	flushErrs []error
	lastErr   error

	// degraded publishes degraded mode; nil means healthy. Entered by a
	// WAL append failure or a permanent/exhausted flush failure, exited
	// by a successful manual Flush or Resume.
	degraded atomic.Pointer[Degraded]
	// hookMu guards the degraded-transition hooks (OnDegraded).
	hookMu     sync.Mutex
	onDegraded []func(*Degraded)

	// flushRetries counts transient flush-transition retries;
	// removeFails counts failed cleanup unlinks (orphan GC, retired
	// segments) — disk leaks made visible instead of silent.
	flushRetries atomic.Int64
	removeFails  atomic.Int64

	// scanFrames/scanPruned count durable frames read for non-resident
	// lineages (every segment's LoadFrame adds to scanFrames) and frames
	// the envelope pruning skipped unread, once per read that filtered
	// them (see ColdFrames).
	scanFrames atomic.Int64
	scanPruned atomic.Int64

	// merges counts committed merges; mergeReclaim the net bytes merges
	// reclaimed (victim sizes minus output size); compactFails the
	// merges that failed (aborts on conflict or Close are not failures).
	merges       atomic.Int64
	mergeReclaim atomic.Int64
	compactFails atomic.Int64
}

// Store implements the bitemporal StateDB seam, the read-only Reader
// surface, and the cold-read seam every cold read of the RAM store
// resolves through; its segments' readers load the frames.
var (
	_ state.StateDB     = (*Store)(nil)
	_ state.Reader      = (*Store)(nil)
	_ state.ColdSource  = (*Store)(nil)
	_ state.FrameSource = (*reader)(nil)
)

// Option configures Open.
type Option func(*Store)

// WithStore uses mem as the RAM working set instead of a fresh default
// store. mem must be empty: recovery loads the durable state into it.
// The engine uses this to wrap its own store (core.WithDurableDir).
func WithStore(mem *state.Store) Option {
	return func(d *Store) { d.mem = mem }
}

// WithFS replaces the filesystem seam (default vfs.OS). Chaos tests
// pass a vfs.FaultFS to inject scripted durable-path failures.
func WithFS(fsys vfs.FS) Option {
	return func(d *Store) { d.fs = fsys }
}

// WithLoadParallelism caps the cold-start workers that decode and
// install segment frames: 0 (the default) uses GOMAXPROCS, 1 loads
// serially. Workers partition keys by the store's shard index, so they
// never contend on a shard lock.
func WithLoadParallelism(n int) Option {
	return func(d *Store) { d.loadPar = n }
}

// Open opens (or initializes) a durable directory and recovers its
// state: manifest, then the newest segment frame of every key
// (bulk-loaded, no replay), then the WAL tail. Orphan files from a
// flush a crash interrupted — segments the manifest never referenced,
// stale temp files — are removed. The returned store is ready for
// reads, writes, and flushes; writes append to the WAL until a flush
// hands them off to segments.
func Open(dir string, opts ...Option) (*Store, error) {
	d := &Store{
		dir: dir, flushEvery: DefaultFlushEvery, nextSeq: 1,
		fs: vfs.OS, retry: DefaultRetryPolicy,
		compactFanout: DefaultCompactFanout, compactGarbage: defaultCompactGarbage,
		compactRate: DefaultCompactRate, levelBytes: DefaultCompactLevelBytes,
		wake: make(chan struct{}, 1), loopDone: make(chan struct{}),
		closing: make(chan struct{}), dryAt: temporal.Forever,
	}
	for _, o := range opts {
		o(d)
	}
	if d.mem == nil {
		d.mem = state.NewStore()
	}
	if err := d.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", dir, err)
	}
	unlock, err := lockDir(d.fs, dir)
	if err != nil {
		return nil, err
	}
	d.unlock = unlock
	opened := false
	defer func() {
		if !opened {
			unlock()
		}
	}()

	// Recovery allocates the whole working set in one bounded burst;
	// letting the collector run its growth-triggered cycles mid-burst
	// just rescans the half-built store several times. Pause it for the
	// duration (the classic storage-engine cold-start move); the deferred
	// restore also triggers one collection that settles the heap goal.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)

	man, err := readManifest(d.fs, filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	cat := &catalog{durableTx: temporal.MinInstant}
	if man != nil {
		cat.durableTx = man.DurableTx
		d.nextSeq = man.NextSeq
		for _, ms := range man.Segments {
			r, err := openSegment(d.fs, filepath.Join(dir, ms.File), &d.scanFrames)
			if err != nil {
				d.closeSegments(cat)
				return nil, err
			}
			cat.segments = append(cat.segments, r)
		}
	}
	d.removeOrphans(man)

	budgetSkipped, err := d.loadFrames(cat)
	if err != nil {
		d.closeSegments(cat)
		return nil, err
	}
	// Publish the catalog and install the cold-read seam BEFORE the WAL
	// tail replays: a tail write to an evicted key must fault its frame
	// back in, which needs both in place.
	d.cat.Store(cat)
	d.mem.SetColdSource(d)
	if d.budget > 0 {
		d.mem.SetAccessTracking(true)
	}
	// Every key the budget left on disk is cold: it serves reads from its
	// frame and faults back in on write.
	d.mem.MarkCold(budgetSkipped)
	// Lineages that stayed cold never observe their maxTx into the mem
	// clock, so advance it to the durable cut — it bounds every flushed
	// record — or snapshot and flush pins would land below cold history.
	d.mem.AdvanceClock(cat.durableTx)
	log, replayed, err := state.RecoverWALDirFS(d.fs, dir, d.mem, cat.durableTx, d.walRotate)
	if err != nil {
		d.closeSegments(cat)
		return nil, err
	}
	d.log = log
	d.flushMark.Store(-int64(replayed))
	d.pulsed.Store(int64(temporal.MinInstant))
	// A WAL append failure may leave a partial frame at the file's end
	// (and a failed fsync leaves its contents unknown) — no per-record
	// recovery exists regardless of the error's taxonomy (see
	// Log.dropping) — so the handler always acknowledges: the writer's RAM commit
	// proceeds, the log drops further appends, and the store degrades.
	// The handler runs under a shard lock, so it only latches atomics
	// and fires the (lock-light) transition hooks.
	log.OnAppendError(func(err error) bool {
		d.enterDegraded(fmt.Errorf("segment: wal append: %w", err), false)
		return true
	})
	d.mem.AttachLog(log)
	opened = true
	go d.maintain()
	return d, nil
}

// loadFrames bulk-loads the newest frame of every cataloged key into the
// RAM working set and rebuilds each segment's live count. Segments walk
// newest→oldest with a seen set, so each key loads from exactly its
// newest frame — the whole history of the key at the durable cut, so a
// lineage evicted before the crash reloads byte-identically. Each
// segment is read into memory once — one sequential read per segment
// instead of a pread per lineage — and only one image is held at a
// time; within a segment the decode+install work fans out across
// shard-partitioned workers (see loadSegmentFrames).
//
// A residency budget bounds the load: once the working set's byte
// estimate reaches it, the remaining (older, since the walk is
// newest-first) keys are skipped and returned so the caller marks them
// evicted — a cold start of a larger-than-RAM directory comes up within
// budget instead of faulting the whole history resident.
func (d *Store) loadFrames(cat *catalog) ([]element.FactKey, error) {
	seen := make(map[element.FactKey]bool)
	var budgetSkipped []element.FactKey
	workers := d.loadPar
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for i := len(cat.segments) - 1; i >= 0; i-- {
		r := cat.segments[i]
		var load []element.FactKey
		for key := range r.index {
			if seen[key] {
				continue
			}
			seen[key] = true
			load = append(load, key)
		}
		r.live.Store(int64(len(load)))
		if len(load) == 0 {
			continue
		}
		if d.budget > 0 && d.mem.ResidentBytes() >= d.budget {
			budgetSkipped = append(budgetSkipped, load...)
			continue
		}
		img, err := r.image()
		if err != nil {
			return nil, err
		}
		if d.budget <= 0 {
			if err := d.loadSegmentFrames(r, img, load, workers); err != nil {
				return nil, err
			}
			continue
		}
		// Budgeted cold start loads in chunks, re-checking the budget
		// between them: a single segment can hold far more state than the
		// budget, so the per-segment check above is not enough on its own.
		const chunk = 64
		for len(load) > 0 {
			if d.mem.ResidentBytes() >= d.budget {
				budgetSkipped = append(budgetSkipped, load...)
				break
			}
			n := chunk
			if n > len(load) {
				n = len(load)
			}
			if err := d.loadSegmentFrames(r, img, load[:n], workers); err != nil {
				return nil, err
			}
			load = load[n:]
		}
	}
	return budgetSkipped, nil
}

// loadSegmentFrames decodes and installs the given frames of one segment
// image. Keys are partitioned across workers by the store's shard index:
// two keys in different partitions never share a shard, so the workers
// install lineages without contending on a shard lock.
func (d *Store) loadSegmentFrames(r *reader, img []byte, keys []element.FactKey, workers int) error {
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers <= 1 {
		for _, key := range keys {
			if err := d.loadFrame(r, img, key); err != nil {
				return err
			}
		}
		return nil
	}
	parts := make([][]element.FactKey, workers)
	for _, key := range keys {
		w := d.mem.ShardIndex(key.Entity, key.Attribute) % workers
		parts[w] = append(parts[w], key)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range parts {
		if len(parts[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, key := range parts[w] {
				if err := d.loadFrame(r, img, key); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// loadFrame decodes one frame from a segment image and installs its
// lineage; a tombstone frame installs nothing (the key is durably
// absent).
func (d *Store) loadFrame(r *reader, img []byte, key element.FactKey) error {
	records, err := r.readLineageImage(img, key, r.index[key].off, new(state.ColdBuf))
	if err != nil {
		return err
	}
	return d.mem.LoadLineage(records)
}

// removeOrphans deletes files a crash left unreferenced: segments absent
// from the manifest and stale temp files. Safe by construction — a
// segment becomes referenced only after it is fully written and synced.
func (d *Store) removeOrphans(man *manifestRec) {
	live := map[string]bool{}
	if man != nil {
		for _, ms := range man.Segments {
			live[ms.File] = true
		}
	}
	ents, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case live[name]:
		case filepath.Ext(name) == ".tmp", filepath.Ext(name) == ".seg":
			if err := d.fs.Remove(filepath.Join(d.dir, name)); err != nil {
				d.removeFails.Add(1)
			}
		}
	}
}

// readManifest loads and validates the manifest, returning nil when the
// directory has none yet (a fresh directory).
func readManifest(fsys vfs.FS, path string) (*manifestRec, error) {
	f, err := fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("segment: manifest: %w", err)
	}
	defer f.Close()
	var man manifestRec
	if err := gob.NewDecoder(io.NewSectionReader(f, 0, 1<<62)).Decode(&man); err != nil {
		return nil, fmt.Errorf("segment: manifest: %w", err)
	}
	if man.Version < 1 || man.Version > manifestVersion {
		return nil, fmt.Errorf("segment: manifest version %d, want <= %d", man.Version, manifestVersion)
	}
	return &man, nil
}

// writeManifest commits a manifest atomically: temp file, sync, rename,
// directory sync.
func (d *Store) writeManifest(man *manifestRec) error {
	path := filepath.Join(d.dir, manifestName)
	tmp := path + ".tmp"
	f, err := d.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(man); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		d.fs.Remove(tmp)
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		d.fs.Remove(tmp)
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if err := d.fs.Rename(tmp, path); err != nil {
		d.fs.Remove(tmp)
		return fmt.Errorf("segment: manifest: %w", err)
	}
	// Until the directory syncs, the rename may not survive a power loss:
	// the commit failed, as a torn rename does.
	if err := d.fs.SyncDir(d.dir); err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	return nil
}

// Mem returns the RAM working set — the wrapped sharded store. Engines
// and rules write through it directly; everything it holds is covered by
// the WAL until the next flush.
func (d *Store) Mem() *state.Store { return d.mem }

// DurableTx reports the durable cut: every write at or before it is
// captured by segment files; later writes live in the WAL tail.
func (d *Store) DurableTx() temporal.Instant { return d.cat.Load().durableTx }

// Flush makes everything committed so far durable in segments: it pins
// the cut behind the store's publication barrier (Store.Snapshot
// semantics) and hands the WAL prefix off. See FlushAt for the protocol;
// engines flush at watermarks instead, where the cut is quiesced by the
// stream contract.
func (d *Store) Flush() error {
	return d.FlushAt(d.mem.Snapshot().At())
}

// FlushAt flushes the cut at an explicit transaction-time instant:
// gather the lineages touched since the last flush (each as the record
// set believed at the cut) into one new segment, sync it, commit the
// manifest advancing the durable cut, truncate the WAL prefix the
// segments now cover, and retire segments whose every key has a newer
// frame. Writes with explicit transaction times at or before an
// already-durable cut forfeit durability, exactly as they forfeit
// snapshot isolation (snapshot.go); default-clock and watermark-ordered
// writes cannot land behind the cut.
//
// FlushAt serializes with other flushes; concurrent reads and writes
// proceed throughout (the gather is lock-free, the WAL truncation
// briefly blocks appenders only).
func (d *Store) FlushAt(cut temporal.Instant) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Latched flush-transition errors are surfaced alongside — never
	// instead of — this attempt: a transient failure (disk pressure,
	// say) must not disable flushing permanently.
	joined := d.takeFlushErr()
	if d.degraded.Load() != nil && d.log.Dropping() {
		// Degraded-exit protocol for a forfeited WAL. Order is load-
		// bearing: Rearm the log FIRST (a fresh file), THEN
		// pin the cut. A transaction time is reserved under the shard
		// lock before its WAL append, so every append dropped before the
		// Rearm carries a time at or before the pin — the flush below
		// covers it — and every append after the Rearm lands in the
		// fresh WAL. The loss window left is a crash between here and
		// the manifest commit, which degraded mode already forfeited.
		if err := d.log.Rearm(); err != nil {
			return errors.Join(joined, err)
		}
		if c := d.mem.Snapshot().At(); c > cut {
			cut = c
		}
	}
	err := d.flushLocked(cut)
	if err == nil {
		d.noteFlushErr(nil)
		d.exitDegraded()
	}
	return errors.Join(joined, err)
}

// flushLocked is FlushAt's body; callers hold d.mu.
func (d *Store) flushLocked(cut temporal.Instant) error {
	if d.closed {
		return errors.New("segment: store is closed")
	}
	cat := d.cat.Load()
	if cut <= cat.durableTx {
		return nil
	}
	mark := d.log.Appended()

	name := fmt.Sprintf("seg-%08d.seg", d.nextSeq)
	w, err := createSegment(d.fs, filepath.Join(d.dir, name), 0, &d.scanFrames)
	if err != nil {
		return err
	}
	var gatherErr error
	// rewritten collects every key the new segment holds — each one's
	// previous owner loses a live frame.
	var rewritten []element.FactKey
	d.mem.FlushCut(cut, cat.durableTx, func(key element.FactKey, records []*element.Fact) {
		if gatherErr != nil {
			return
		}
		gatherErr = w.writeLineage(key, records)
		rewritten = append(rewritten, key)
	})
	if gatherErr != nil {
		w.abort()
		return gatherErr
	}

	nc := &catalog{durableTx: cut}
	segs := make([]*reader, len(cat.segments), len(cat.segments)+1)
	copy(segs, cat.segments)
	if len(rewritten) == 0 {
		// Nothing dirty: advance the durable cut without an empty file.
		w.abort()
	} else {
		r, err := w.finish(cut)
		if err != nil {
			return err
		}
		d.nextSeq++
		segs = append(segs, r)
	}
	// Per-segment live accounting, O(dirty keys): the new segment owns
	// every rewritten key, so each key's previous owner — its newest OLD
	// frame — loses one. The losses apply only once the manifest commits:
	// a failed commit leaves every count as it was for the retry.
	lost := map[*reader]int64{}
	for _, key := range rewritten {
		if own, _, ok := cat.owner(key); ok {
			lost[own]++
		}
	}

	// A segment whose every key has a newer frame is dead (no live frame
	// left after this flush's losses): drop it from the manifest now,
	// unlink after the commit.
	var dead []*reader
	for _, r := range segs {
		if r.live.Load() == lost[r] {
			dead = append(dead, r)
		} else {
			nc.segments = append(nc.segments, r)
		}
	}

	man := d.manifestFor(nc)
	// Sync the WAL before the manifest commit: after the commit, every
	// write is durable against power loss too — at or before the cut in
	// the just-synced segment, after it in the just-synced tail. A
	// dropping (degraded) WAL is forfeit — its tail ends in a torn
	// record and newer appends were discarded — so there is nothing
	// coherent to sync; the segment flush itself carries durability.
	if !d.log.Dropping() {
		if err := d.log.Sync(); err != nil {
			return err
		}
	}
	if err := d.writeManifest(man); err != nil {
		return err
	}
	for r, n := range lost {
		r.live.Add(-n)
	}
	d.publish(nc)
	d.flushMark.Store(mark)

	// Retired segments are unlinked but NOT explicitly closed: a reader
	// that loaded an older catalog may still pread them. Dropping every
	// reference here lets the runtime's os.File finalizer close each
	// descriptor once no in-flight reader can reach it — the same
	// GC-based epoch reclamation the store's published heads use. A
	// failed unlink is counted (Info.RemoveFailures), not silenced.
	for _, r := range dead {
		if err := d.fs.Remove(r.path); err != nil {
			d.removeFails.Add(1)
		}
	}

	// The manifest is committed: the WAL prefix at or before the cut is
	// redundant. A crash before (or during) the truncation is benign —
	// recovery filters replay by the manifest's cut. A dropping WAL is
	// skipped for the same reason its sync was.
	if !d.log.Dropping() {
		if err := d.log.TruncateBefore(cut); err != nil {
			return err
		}
	}
	return nil
}

// manifestFor serializes a catalog as the manifest record to commit.
// Callers hold d.mu.
func (d *Store) manifestFor(cat *catalog) *manifestRec {
	man := &manifestRec{Version: manifestVersion, DurableTx: cat.durableTx, NextSeq: d.nextSeq}
	for _, r := range cat.segments {
		man.Segments = append(man.Segments, manifestSegment{File: filepath.Base(r.path), CutTx: r.cut})
	}
	return man
}

// Close flushes everything committed so far and releases the WAL and
// segment descriptors. The store must not be used afterwards; Close is
// idempotent (later calls return the first call's result, so the
// `defer Close` + explicit `Close` pattern reports no spurious error).
// Omitting Close loses nothing but the final flush: the WAL still
// covers every commit since the last one — that is the crash the
// recovery path is built for.
func (d *Store) Close() error {
	d.closeOnce.Do(func() { d.closeErr = d.doClose() })
	return d.closeErr
}

// doClose is the body of the first Close. The lock and descriptors are
// released even when the final flush fails — Close runs once, so
// holding them would leak the flock (blocking any reopen in-process)
// with no path left to release it.
func (d *Store) doClose() error {
	close(d.closing)
	<-d.loopDone
	flushErr := d.Flush()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.closeSegments(d.cat.Load())
	closeErr := d.log.Close()
	d.unlock()
	return errors.Join(flushErr, closeErr)
}

// Abandon releases the store's OS resources — the directory lock, WAL,
// and segment descriptors — WITHOUT flushing, leaving the directory
// exactly as a process crash would: segments up to the last durable
// cut plus the WAL tail. Writes staged in the WAL and not yet committed
// are lost, as in a crash (see state.Log.Abandon). It exists for
// crash-simulation tests and benchmarks that reopen a directory their
// "crashed" store still references in-process (a real crash releases
// the flock with the process). The store must not be used afterwards;
// a subsequent Close is a no-op.
func (d *Store) Abandon() {
	d.closeOnce.Do(func() {
		close(d.closing)
		<-d.loopDone
		d.mu.Lock()
		defer d.mu.Unlock()
		d.closed = true
		d.closeSegments(d.cat.Load())
		d.log.Abandon()
		d.unlock()
	})
}

// publish makes nc the catalog reads resolve against, then drops the
// RAM store's kept cold resolutions: each holds the catalog it was made
// against, so none may keep a segment nc retires reachable. Callers
// hold d.mu. A scan resolving concurrently against the old catalog
// does not keep its resolution (see state.ColdResolution).
func (d *Store) publish(nc *catalog) {
	d.cat.Store(nc)
	d.mem.DropColdResolutions()
}

// closeSegments closes every segment descriptor of a catalog.
func (d *Store) closeSegments(cat *catalog) {
	for _, r := range cat.segments {
		r.f.Close()
	}
}

// Find returns the version of (entity, attr) selected by the read
// options. The RAM working set resolves it; a lineage that is not
// resident — evicted by the budget — resolves its newest segment frame
// through ResolveCold and ColdFrames, like a scan's cold key, so reads
// below the residency horizon still resolve. A resident lineage answers
// from RAM alone, even when the answer is "nothing": its frame may
// predate deletes or supersessions the lineage has since seen, and
// serving it would resurrect them. Implements state.StateDB / state.Reader.
func (d *Store) Find(entity, attr string, opts ...state.ReadOpt) (*element.Fact, bool) {
	return d.mem.Find(entity, attr, opts...)
}

// History returns the version history of (entity, attr) — from RAM when
// the working set holds the lineage, from the newest durable frame (via
// ResolveCold and ColdFrames) when it does not. RAM and frame histories
// are never merged: whichever side owns the lineage answers alone.
func (d *Store) History(entity, attr string, opts ...state.ReadOpt) []*element.Fact {
	return d.mem.History(entity, attr, opts...)
}

// List scans through the RAM working set, whose gather resolves only the
// keys its shards publish as cold (evicted) against this store's catalog
// (ResolveCold, once per catalog), filters that resolution (ColdFrames)
// and merges the surviving frames in key order, so scans below the
// residency horizon see the same durable history Find and History do,
// in exactly the order an all-resident store would produce, while an
// all-resident scan does no catalog work. Implements state.StateDB /
// state.Reader.
func (d *Store) List(opts ...state.ReadOpt) []*element.Fact {
	return d.mem.List(opts...)
}

// resolution is a key set resolved against one catalog: refs holds,
// in key order, one entry per key that has a frame — its newest frame,
// found newest segment first. Nothing in it is pruned: the envelopes
// it carries are tested per read by filter. It implements
// state.ColdResolution.
type resolution struct {
	d    *Store
	cat  *catalog
	keys []element.FactKey
	refs []coldRef
	one  [1]coldRef // refs' backing for a one-key resolve
}

// coldRef is one key's newest frame: the owning segment, and the
// frame's offset and value envelope from its footer index.
type coldRef struct {
	frameRef
	r *reader
	k int32 // index into the resolution's keys
}

// Current reports whether the resolution's catalog is still the
// published one. Implements state.ColdResolution.
func (res *resolution) Current() bool { return res.d.cat.Load() == res.cat }

// ResolveCold resolves cold keys — a scan order's, or the one key of a
// point read, history or fault-in — against one catalog load, each key
// at its newest frame, unread and unpruned. Keys none of which has a
// frame share their catalog's empty resolution, so a point read of a key
// never flushed allocates nothing. Implements state.ColdSource.
func (d *Store) ResolveCold(keys []element.FactKey) state.ColdResolution {
	cat := d.cat.Load()
	var res *resolution
	if len(keys) == 1 {
		// A point read resolves on the stack: only a key with a frame
		// allocates its resolution.
		var one [1]coldRef
		if len(resolve(cat, keys, one[:])) > 0 {
			res = &resolution{d: d, cat: cat, keys: keys, one: one}
			res.refs = res.one[:]
		}
	} else if refs := resolve(cat, keys, make([]coldRef, len(keys))); len(refs) > 0 {
		res = &resolution{d: d, cat: cat, keys: keys, refs: refs}
	}
	if res != nil {
		return res
	}
	if none := cat.none.Load(); none != nil {
		return none
	}
	cat.none.CompareAndSwap(nil, &resolution{d: d, cat: cat})
	return cat.none.Load()
}

// ColdFrames filters a resolution for one read, appending to dst an
// unread candidate per resolved key, in the keys' order. A frame is
// pruned — the pread never issued — when the owning segment's
// bitemporal envelope is disjoint from the shape, or when its own value
// envelope from the footer index (or, failing that, its segment's) is
// disjoint from the pushed bounds: the decoded head would carry the same
// envelope and fail the gather's skipByBounds test, so the result is
// unchanged, only the read is saved. Pruning is per key, so it survives
// merges that fold value-disjoint segments together. Implements
// state.ColdSource.
func (d *Store) ColdFrames(dst []state.ColdLineage, res state.ColdResolution, shape state.ScanShape, bounds state.ValueBounds) []state.ColdLineage {
	r := res.(*resolution)
	var seg *reader // the segment segPruned was computed for
	segPruned := false
	pruned := 0
	for i := range r.refs {
		c := &r.refs[i]
		if c.r != seg {
			seg = c.r
			segPruned = scanPrune(seg.env, shape) || (seg.vNumeric && bounds.Excludes(seg.vMin, seg.vMax))
		}
		if segPruned || (c.numeric && bounds.Excludes(c.lo, c.hi)) {
			pruned++
			continue
		}
		dst = append(dst, state.ColdLineage{Key: r.keys[c.k], Src: c.r, Off: c.off})
	}
	if pruned > 0 {
		d.scanPruned.Add(int64(pruned))
	}
	return dst
}

// resolve finds each key's newest frame in cat, newest segment first,
// and returns refs — len(keys) long on entry — compacted to the keys
// that have one, in key order. A segment costs min(|index|, |keys still
// unresolved|): it is probed key by key, or its index walked when that
// is smaller, so many segments and many unowned keys never multiply.
// While it runs, refs[k].r marks keys[k] resolved and the k fields of
// refs[:ntodo] list the unresolved key indexes, compacted lazily, so the
// resolve allocates nothing beyond refs unless an index walk needs its
// key positions.
func resolve(cat *catalog, keys []element.FactKey, refs []coldRef) []coldRef {
	for k := range refs {
		refs[k] = coldRef{k: int32(k)}
	}
	left, ntodo := len(keys), len(keys)
	var pos map[element.FactKey]int32 // built only if some index walk is cheaper
	for i := len(cat.segments) - 1; i >= 0 && left > 0; i-- {
		r := cat.segments[i]
		if len(r.index) < left {
			if pos == nil {
				pos = make(map[element.FactKey]int32, len(keys))
				for k, key := range keys {
					pos[key] = int32(k)
				}
			}
			for key, ref := range r.index {
				if k, ok := pos[key]; ok && refs[k].r == nil {
					refs[k].r, refs[k].frameRef = r, ref
					left--
				}
			}
			continue
		}
		n := 0
		for j := range ntodo {
			k := refs[j].k
			if refs[k].r != nil {
				continue
			}
			if ref, ok := r.index[keys[k]]; ok {
				refs[k].r, refs[k].frameRef = r, ref
				left--
			} else {
				refs[n].k = k
				n++
			}
		}
		ntodo = n
	}
	n := 0
	for k := range refs {
		if refs[k].r != nil {
			refs[n] = refs[k]
			refs[n].k = int32(k)
			n++
		}
	}
	return refs[:n]
}

// scanPrune reports whether a segment's bitemporal envelope proves that
// no record in it can match the shape ColdFrames was given: a scan's, a
// point read's (valid and transaction pins), a history's (transaction
// pin only, all versions) or fault-in's (none, all versions: never
// pruned).
func scanPrune(env envelope, shape state.ScanShape) bool {
	if shape.HasTxAt && shape.TxAt < env.minTx {
		// Nothing in the segment was recorded by the belief pin.
		return true
	}
	if shape.HasValidAt {
		return shape.ValidAt < env.minValid || shape.ValidAt >= env.maxValid
	}
	if shape.HasDuring {
		return shape.During.End <= env.minValid || shape.During.Start >= env.maxValid
	}
	if !shape.AllVersions {
		// A current-belief scan selects open versions; a segment with no
		// open validity anywhere cannot hold one.
		return env.maxValid != temporal.Forever
	}
	return false
}

// Put writes through the RAM working set (and its WAL). Implements
// state.StateDB.
func (d *Store) Put(entity, attr string, v element.Value, opts ...state.WriteOpt) error {
	return d.mem.Put(entity, attr, v, opts...)
}

// Delete writes through the RAM working set (and its WAL). Implements
// state.StateDB.
func (d *Store) Delete(entity, attr string, opts ...state.WriteOpt) error {
	return d.mem.Delete(entity, attr, opts...)
}

// Info summarizes the durable directory.
type Info struct {
	// DurableTx is the durable cut (see DurableTx).
	DurableTx temporal.Instant
	// Segments is the number of live segment files.
	Segments int
	// SegmentsPerLevel counts live segments by compaction level (index =
	// level).
	SegmentsPerLevel []int
	// Frames is the number of keys with a durable frame.
	Frames int
	// FrameSlots is the total index-entry count across segments —
	// Frames plus the superseded duplicates compaction has not yet
	// reclaimed.
	FrameSlots int
	// WALRecords is the write count of the WAL tail, staged writes
	// included: a group-committed frame counts each of its writes.
	WALRecords int
	// WALFiles is the file count of the WAL chain.
	WALFiles int
	// DroppedWALFiles is the cumulative count of whole WAL files
	// truncation and rearms unlinked.
	DroppedWALFiles int
	// WALDropFailures counts WAL chain files that should have been
	// unlinked but could not be (disk leak made visible).
	WALDropFailures int
	// Merges counts committed compaction merges.
	Merges int64
	// MergeBytesReclaimed is the net bytes merges reclaimed: victim file
	// sizes minus merged output sizes.
	MergeBytesReclaimed int64
	// CompactionFailures counts merges that failed outright (conflict
	// and shutdown aborts excluded).
	CompactionFailures int64
	// ScanFrames is the cumulative count of durable frames read for
	// non-resident lineages: every cold load of a scan, point read,
	// history or fault-in.
	ScanFrames int64
	// ScanFramesPruned is the cumulative count of cold keys — of any of
	// those reads — whose frame was pruned unread: by its segment's
	// bitemporal envelope, or by its own (or its segment's) value
	// envelope.
	ScanFramesPruned int64
	// ResidentLineages is the number of lineages currently resident in
	// the RAM working set.
	ResidentLineages int
	// EvictedLineages is the number of keys currently evicted from RAM
	// by the residency budget — served from durable frames, faulted back
	// in on write.
	EvictedLineages int
	// ResidentBytes is the RAM working set's estimated byte footprint —
	// what the residency budget is compared against.
	ResidentBytes int64
	// Degraded is non-nil while the store is in degraded mode.
	Degraded *Degraded
	// LastFlushErr is the most recent flush failure; nil after a
	// successful flush.
	LastFlushErr error
	// FlushRetries counts transient flush-transition retries.
	FlushRetries int64
	// RemoveFailures counts failed cleanup unlinks (orphan GC, retired
	// segments).
	RemoveFailures int64
	// DroppedAppends counts WAL writes acknowledged and discarded in
	// degraded mode.
	DroppedAppends int
}

// Info returns a point-in-time summary of the durable directory.
func (d *Store) Info() Info {
	cat := d.cat.Load()
	frames, slots := 0, 0
	var perLevel []int
	for _, r := range cat.segments {
		frames += int(r.live.Load())
		slots += len(r.index)
		for len(perLevel) <= r.level {
			perLevel = append(perLevel, 0)
		}
		perLevel[r.level]++
	}
	return Info{
		DurableTx:           cat.durableTx,
		Segments:            len(cat.segments),
		SegmentsPerLevel:    perLevel,
		Frames:              frames,
		FrameSlots:          slots,
		WALRecords:          d.log.Len(),
		WALFiles:            d.log.Files(),
		DroppedWALFiles:     d.log.DroppedFiles(),
		WALDropFailures:     d.log.DropFailures(),
		Merges:              d.merges.Load(),
		MergeBytesReclaimed: d.mergeReclaim.Load(),
		CompactionFailures:  d.compactFails.Load(),
		ScanFrames:          d.scanFrames.Load(),
		ScanFramesPruned:    d.scanPruned.Load(),
		ResidentLineages:    d.mem.ResidentLineages(),
		EvictedLineages:     d.mem.EvictedCount(),
		ResidentBytes:       d.mem.ResidentBytes(),
		Degraded:            d.degraded.Load(),
		LastFlushErr:        d.LastFlushErr(),
		FlushRetries:        d.flushRetries.Load(),
		RemoveFailures:      d.removeFails.Load(),
		DroppedAppends:      d.log.Dropped(),
	}
}
