//go:build !race

package jobservice

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random and allocation counts are not the service's.
const raceEnabled = false
