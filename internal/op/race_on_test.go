//go:build race

package op

// raceEnabled reports whether the race detector is active: its shadow
// memory multiplies the footprint of the largest product references.
const raceEnabled = true
