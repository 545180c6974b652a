//go:build race

package engine

// raceEnabled reports whether the race detector is active: its
// slowdown and shadow memory put the largest setups out of reach.
const raceEnabled = true
