//go:build race

package offload

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random and allocation counts are not the codec's.
const raceEnabled = true
