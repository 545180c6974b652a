//go:build !race

package op

const raceEnabled = false
