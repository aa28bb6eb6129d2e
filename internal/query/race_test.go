//go:build race

package query

// raceEnabled reports whether the test binary runs under the race
// detector, which inflates heap allocation counts.
const raceEnabled = true
