package segment

import "time"

// WithWALRotateBytes sets the size threshold at which the WAL rotates
// to a fresh chain file (default state.DefaultWALRotateBytes). Smaller
// thresholds make TruncateBefore reclaim more eagerly — it only ever
// drops whole files — at the cost of more files.
func WithWALRotateBytes(n int64) Option {
	return func(d *Store) { d.walRotate = n }
}

// String names a transition as Step reports it.
func (t transition) String() string {
	return [...]string{"", "flush", "evict", "merge"}[t]
}

// Step runs one maintenance transition, exactly as the loop would, and
// reports which fired: "flush", "evict", "merge", or "" when none is
// enabled. A flush retry still backing off is waited out, not skipped.
func (d *Store) Step() string {
	for {
		d.stepMu.Lock()
		t, wait := d.step(true), time.Until(d.retryAt)
		d.stepMu.Unlock()
		if t != stepNone || wait <= 0 {
			return t.String()
		}
		time.Sleep(wait)
	}
}

// Idle fires transitions until none is enabled: every pulse so far has
// been fully acted on when it returns.
func (d *Store) Idle() {
	for d.Step() != "" {
	}
}
