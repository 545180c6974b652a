//go:build race

package amg

// raceEnabled reports whether the race detector is active: sync.Pool
// intentionally drops items under -race to surface races, so pool-reuse
// and allocation contracts do not hold there.
const raceEnabled = true
