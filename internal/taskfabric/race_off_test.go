//go:build !race

package taskfabric

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random and allocation counts are not the fabric's.
const raceEnabled = false
