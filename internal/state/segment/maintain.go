// The maintenance loop: one goroutine per Store fires all background
// work as prioritized transitions — flush, then evict, then merge (see
// step for each guard). Pulse records the newest quiesced cut and wakes
// it; a merge's rate-limit pause is its yield point (see pause), and
// degraded mode disables every transition.

package segment

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/temporal"
	"repro/internal/vfs"
)

const (
	// DefaultFlushEvery is the count of writes since the last flush cut
	// that enables the flush transition, unless WithFlushEvery
	// overrides it. A group-committed frame counts each of its writes.
	DefaultFlushEvery = 8192

	// DefaultCompactFanout is the equal-level run length that enables a
	// level merge unless WithCompactionFanout overrides it.
	DefaultCompactFanout = 4

	// defaultCompactGarbage is the garbage fraction at which a single
	// segment is rewritten in place to reclaim dead frames.
	defaultCompactGarbage = 0.5

	// minCompactFrames keeps trivial segments out of the garbage-ratio
	// rewrite path, where a rewrite reclaims too little to pay for itself.
	minCompactFrames = 4

	// DefaultCompactRate is the default merge write-rate limit in bytes
	// per second: merges leave the disk to flushes, which run in their
	// pauses.
	DefaultCompactRate = 64 << 20

	// DefaultCompactLevelBytes is the default level-0 byte budget of
	// size-aware victim selection (see WithCompactionLevelBytes).
	DefaultCompactLevelBytes = 8 << 20

	// maxFlushErrHistory bounds the flush-transition error history the
	// next Flush/Close surfaces joined, newest kept.
	maxFlushErrHistory = 8
)

// WithFlushEvery sets the count of writes since the last flush cut that
// enables the flush transition (default DefaultFlushEvery; n <= 0
// flushes at every pulse past the durable cut).
func WithFlushEvery(n int) Option {
	return func(d *Store) { d.flushEvery = n }
}

// WithRetryPolicy replaces the flush transition's transient-error retry
// policy (default DefaultRetryPolicy).
func WithRetryPolicy(p RetryPolicy) Option {
	return func(d *Store) { d.retry = p }
}

// WithCompactionFanout sets the equal-level run length that enables a
// level merge (default DefaultCompactFanout; n < 2 is clamped to 2).
func WithCompactionFanout(n int) Option {
	return func(d *Store) { d.compactFanout = max(n, 2) }
}

// WithCompactionLevelBytes sets the level-0 byte budget of size-aware
// victim selection (default DefaultCompactLevelBytes): a contiguous
// equal-level run whose combined file size reaches n * fanout^level is
// merged into the next level even before the run reaches the fanout's
// segment count. n <= 0 disables the byte trigger — runs then merge on
// segment count alone, where one huge segment counts the same as a
// tiny one.
func WithCompactionLevelBytes(n int64) Option {
	return func(d *Store) { d.levelBytes = n }
}

// WithResidencyBudget caps the RAM working set at n estimated bytes
// (default 0 = unbounded, no eviction). When the resident estimate
// exceeds the budget, the evict transition pushes least-recently-used,
// fully-durable lineages out of RAM — their segment frames become the
// single copy, point reads and scans fall through to them, and writes
// fault them back in. The budget is a target, not a hard limit: state
// newer than the durable cut is never evicted, so a working set hotter
// than the flush cadence can exceed it.
func WithResidencyBudget(n int64) Option {
	return func(d *Store) { d.budget = n }
}

// RetryPolicy tunes the flush transition's reaction to transient
// durable-path errors (vfs.IsTransient): capped exponential backoff
// with full jitter, then degraded mode when retries are exhausted.
type RetryPolicy struct {
	// MaxRetries is how many times a failing flush is retried on
	// transient errors before the store degrades.
	MaxRetries int
	// BaseDelay is the first backoff delay; each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the doubling.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the retry policy Open uses unless
// WithRetryPolicy overrides it.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

// Degraded describes the store's degraded mode: the durable write path
// has failed permanently (or exhausted its retries), so flushes and WAL
// appends have stopped while ingest and every read — resident or cold —
// keep serving. A successful manual Flush (or Resume) exits the mode.
type Degraded struct {
	// Since is when the store degraded.
	Since time.Time
	// Cause is the failure that latched the mode.
	Cause error
	// RetriesExhausted distinguishes a transient failure that outlived
	// the retry budget from an immediately-permanent one.
	RetriesExhausted bool
}

// transition names what one step of the loop fired.
type transition uint8

const (
	stepNone transition = iota
	stepFlush
	stepEvict
	stepMerge
)

// Pulse records cut — a transaction time the engine's watermark has
// quiesced — as the cut the next flush pins, and wakes the loop without
// waiting for it. Pulses never lower the cut. Failures surface later:
// from the next Flush, FlushAt or Close, LastFlushErr, and Degraded.
func (d *Store) Pulse(cut temporal.Instant) {
	for old := d.pulsed.Load(); int64(cut) > old && !d.pulsed.CompareAndSwap(old, int64(cut)); old = d.pulsed.Load() {
	}
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// maintain is the loop goroutine Open starts: woken by Pulse or a due
// flush retry, it steps until no transition is enabled. Close and
// Abandon stop it after the step in flight.
func (d *Store) maintain() {
	defer close(d.loopDone)
	for {
		select {
		case <-d.closing:
			return
		case <-d.wake:
		}
		d.stepMu.Lock()
		for d.step(true) != stepNone {
		}
		d.stepMu.Unlock()
	}
}

// step fires the highest-priority enabled transition (merges only when
// merge is set) and reports it. Callers hold stepMu. The guards:
//
//  1. flush — the pulsed cut is past the durable cut, flushEvery writes
//     arrived since the last flush pinned its cut, and no transient
//     failure's retry time is still ahead;
//  2. evict — resident bytes exceed the budget and the durable cut has
//     moved since a sweep that evicted nothing;
//  3. merge — selectVictims finds work in a catalog no failed merge
//     already tried.
func (d *Store) step(merge bool) transition {
	select {
	case <-d.closing:
		return stepNone
	default:
	}
	if d.degraded.Load() != nil {
		return stepNone
	}
	durable := d.DurableTx()
	if cut := temporal.Instant(d.pulsed.Load()); cut > durable && time.Now().After(d.retryAt) &&
		d.log.Appended()-d.flushMark.Load() >= int64(d.flushEvery) {
		d.flushStep(cut)
		return stepFlush
	}
	if d.budget > 0 && durable != d.dryAt && d.mem.ResidentBytes() > d.budget {
		d.dryAt = temporal.Forever
		if d.mem.EvictToBudget(d.budget, durable) == 0 {
			d.dryAt = durable
		}
		return stepEvict
	}
	if cat := d.cat.Load(); merge && cat != d.staleCat {
		if lo, hi, level := selectVictims(cat, d.compactFanout, d.compactGarbage, d.levelBytes); hi > lo {
			d.mergeRange(cat, lo, hi, level)
			if d.cat.Load() == cat {
				d.staleCat = cat // no commit: retry on the next catalog, not in a spin
			}
			return stepMerge
		}
	}
	return stepNone
}

// flushStep is the flush transition. A transient failure
// (vfs.IsTransient) sets a retry time — doubling delay, full jitter,
// under the store's RetryPolicy — and a timer to wake the loop then; a
// permanent failure or an exhausted budget latches degraded mode.
func (d *Store) flushStep(cut temporal.Instant) {
	d.mu.Lock()
	err := d.flushLocked(cut)
	d.mu.Unlock()
	d.noteFlushErr(err)
	if err == nil {
		d.retries = 0
		return
	}
	if transient := vfs.IsTransient(err); !transient || d.retries >= d.retry.MaxRetries {
		d.retries = 0
		d.enterDegraded(err, transient)
		return
	}
	if d.retries == 0 {
		d.retryDelay = d.retry.BaseDelay
	}
	d.retries++
	d.flushRetries.Add(1)
	wait := d.retryDelay/2 + time.Duration(rand.Int63n(int64(d.retryDelay/2)+1))
	d.retryAt = time.Now().Add(wait)
	time.AfterFunc(wait, func() { d.Pulse(temporal.MinInstant) }) // wake only
	d.retryDelay = min(2*d.retryDelay, d.retry.MaxDelay)
}

// pause is a merge's rate-limit sleep and the loop's yield point: any
// flush or eviction enabled before or during it fires inside it, so a
// paced merge never holds them back. It reports false when Close
// interrupts. Callers hold stepMu.
func (d *Store) pause(dur time.Duration) bool {
	done := time.After(dur)
	for {
		for d.step(false) != stepNone {
		}
		select {
		case <-done:
			return true
		case <-d.wake:
		case <-d.closing:
			return false
		}
	}
}

// EvictToBudget synchronously evicts least-recently-used fully-durable
// lineages until the RAM working set's byte estimate is at or below
// budget, returning how many lineages left RAM. It is the operator (and
// test) verb for "evict now"; the evict transition does the same work
// against the configured budget.
func (d *Store) EvictToBudget(budget int64) int {
	return d.mem.EvictToBudget(budget, d.DurableTx())
}

// noteFlushErr records one flush-transition failure in the bounded
// history (oldest evicted) and as the latest cause for Info; nil, a
// flush that succeeded, clears the latest cause.
func (d *Store) noteFlushErr(err error) {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	if d.lastErr = err; err == nil {
		return
	}
	d.flushErrs = append(d.flushErrs, err)
	if len(d.flushErrs) > maxFlushErrHistory {
		d.flushErrs = d.flushErrs[len(d.flushErrs)-maxFlushErrHistory:]
	}
}

// takeFlushErr drains the flush-transition error history, joining every
// retained failure — not just the first — so distinct later causes
// survive to the surfacing Flush/Close.
func (d *Store) takeFlushErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	err := errors.Join(d.flushErrs...) // nil when empty
	d.flushErrs = nil
	return err
}

// LastFlushErr reports the most recent flush failure; nil after a
// successful flush.
func (d *Store) LastFlushErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.lastErr
}

// enterDegraded latches degraded mode (first cause wins) and fires the
// transition hooks.
func (d *Store) enterDegraded(cause error, exhausted bool) {
	deg := &Degraded{Since: time.Now(), Cause: cause, RetriesExhausted: exhausted}
	if d.degraded.CompareAndSwap(nil, deg) {
		d.fireDegradedHooks(deg)
	}
}

// exitDegraded clears the latch and fires the hooks with nil.
func (d *Store) exitDegraded() {
	if d.degraded.Swap(nil) != nil {
		d.fireDegradedHooks(nil)
	}
}

func (d *Store) fireDegradedHooks(deg *Degraded) {
	d.hookMu.Lock()
	hooks := make([]func(*Degraded), len(d.onDegraded))
	copy(hooks, d.onDegraded)
	d.hookMu.Unlock()
	for _, fn := range hooks {
		fn(deg)
	}
}

// Degraded reports the store's degraded mode; nil means healthy. While
// degraded, ingest and reads keep working — cold reads still pread the
// committed segments, which the failure never touched — flushes stop,
// and WAL appends are acknowledged but dropped (Info.DroppedAppends
// counts them).
func (d *Store) Degraded() *Degraded { return d.degraded.Load() }

// OnDegraded registers a hook fired on degraded-mode transitions: with
// the Degraded record on entry, with nil on exit. Hooks may run on a
// writer goroutine holding a shard lock (WAL failures latch inline), so
// they must be fast and lock-light — atomic updates and non-blocking
// sends, never store operations. Register before ingestion starts.
func (d *Store) OnDegraded(fn func(*Degraded)) {
	d.hookMu.Lock()
	defer d.hookMu.Unlock()
	d.onDegraded = append(d.onDegraded, fn)
}

// Resume is the operator verb for leaving degraded mode: one full
// manual flush — which rearms a forfeited WAL and, on success, clears
// the degraded latch. A nil return means the store is healthy again;
// an error means it is still degraded. Unlike Flush, a successful
// Resume discards the surfaced pre-resume error history (it was
// observable via LastFlushErr and Info while latched) instead of
// reporting old causes as a fresh failure.
func (d *Store) Resume() error {
	d.takeFlushErr()
	return d.Flush()
}
