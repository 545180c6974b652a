//go:build !race

package amg

const raceEnabled = false
