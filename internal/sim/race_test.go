//go:build race

package sim

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts are not stable under it.
const raceEnabled = true
