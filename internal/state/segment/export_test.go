package segment

// WithWALRotateBytes sets the size threshold at which the WAL rotates
// to a fresh chain file (default state.DefaultWALRotateBytes). Smaller
// thresholds make TruncateBefore reclaim more eagerly — it only ever
// drops whole files — at the cost of more files.
func WithWALRotateBytes(n int64) Option {
	return func(d *Store) { d.walRotate = n }
}
