//go:build !race

package krylov

const raceEnabled = false
