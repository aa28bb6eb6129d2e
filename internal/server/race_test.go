//go:build race

package server

// raceEnabled reports whether the test binary runs under the race
// detector, which inflates heap allocation counts and makes sync.Pool
// drop items at random.
const raceEnabled = true
